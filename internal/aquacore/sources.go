package aquacore

import (
	"fmt"

	"aquavol/internal/core"
)

// PlanSource adapts a statically-solved volume plan (DAGSolve or LP) as
// the machine's runtime volume manager. Measurements are ignored — nothing
// in a static plan depends on them.
type PlanSource struct {
	Plan *core.Plan
}

// EdgeVolume implements VolumeSource.
func (s PlanSource) EdgeVolume(edgeID int) (float64, bool) {
	if edgeID < 0 || edgeID >= len(s.Plan.EdgeVolume) {
		return 0, false
	}
	return s.Plan.EdgeVolume[edgeID], true
}

// NodeVolume implements VolumeSource.
func (s PlanSource) NodeVolume(nodeID int) (float64, bool) {
	if nodeID < 0 || nodeID >= len(s.Plan.NodeVolume) {
		return 0, false
	}
	return s.Plan.NodeVolume[nodeID], true
}

// Measured implements VolumeSource.
func (PlanSource) Measured(int, string, float64) {}

// IntPlanSource is PlanSource over an IVol-rounded plan: volumes are exact
// integer multiples of the least count.
type IntPlanSource struct {
	Plan *core.IntPlan
	Cfg  core.Config
}

// EdgeVolume implements VolumeSource.
func (s IntPlanSource) EdgeVolume(edgeID int) (float64, bool) {
	if edgeID < 0 || edgeID >= len(s.Plan.EdgeUnits) {
		return 0, false
	}
	return float64(s.Plan.EdgeUnits[edgeID]) * s.Cfg.LeastCount, true
}

// NodeVolume implements VolumeSource.
func (s IntPlanSource) NodeVolume(nodeID int) (float64, bool) {
	if nodeID < 0 || nodeID >= len(s.Plan.NodeUnits) {
		return 0, false
	}
	return float64(s.Plan.NodeUnits[nodeID]) * s.Cfg.LeastCount, true
}

// Measured implements VolumeSource.
func (IntPlanSource) Measured(int, string, float64) {}

// StagedSource adapts a core.StagedPlan as the runtime volume manager for
// assays with statically-unknown volumes: as the machine reports measured
// separation outputs, successive partitions are solved and their absolute
// volumes become available (§3.5).
type StagedSource struct {
	sp       *core.StagedPlan
	measured map[[2]any]float64
	localOf  map[int][2]int // orig node id -> (part, local id)
	// solveErrs records SolvePart failures in arrival order. The machine
	// surfaces them as EventSolveFailed events and appends the latest to
	// any "missing volume" error, so the root cause is never masked.
	solveErrs []error
	// check, when non-nil, certifies every feasible partition plan
	// before its volumes are served (see CertifyPart). condemned marks
	// partitions whose plan failed certification: their volumes are
	// withheld, so execution fail-stops at the first draw instead of
	// running an uncertified plan.
	check     CertifyPart
	condemned map[int]bool
}

// CertifyPart is the per-partition certification hook of a
// StagedSource: it receives each newly-solved feasible partition plan
// together with the availability limits the solve ran against, and a
// non-nil return condemns the partition. Wired to
// certify.CheckPlan by fluidvm (defense-in-depth: solved-at-runtime
// plans get the same independent check as compile-time ones); nil
// skips certification.
type CertifyPart func(part int, plan *core.Plan, avail core.Availability) error

// SolveErrors returns the runtime solve errors recorded so far, oldest
// first.
func (s *StagedSource) SolveErrors() []error { return s.solveErrs }

// NewStagedSource wraps sp, solving every measurement-independent
// partition up front (the compile-time share of the work). A non-nil
// check certifies each feasible plan as it is solved: a static
// partition failing certification fails construction outright, and a
// runtime-solved one is condemned (its volumes withheld) so the run
// fail-stops before executing it.
func NewStagedSource(sp *core.StagedPlan, check CertifyPart) (*StagedSource, error) {
	s := &StagedSource{
		sp:        sp,
		measured:  map[[2]any]float64{},
		localOf:   map[int][2]int{},
		check:     check,
		condemned: map[int]bool{},
	}
	for pi, m := range sp.Partition.OrigOf {
		for local, orig := range m {
			s.localOf[orig] = [2]int{pi, local}
		}
	}
	done, err := sp.SolveStatic()
	if err != nil {
		return nil, err
	}
	if check != nil {
		for _, i := range done {
			if p := sp.Plans[i]; p != nil && p.Feasible() {
				if err := check(i, p, sp.PartAvailability(i, nil)); err != nil {
					return nil, fmt.Errorf("partition %d plan rejected: %w", i, err)
				}
			}
		}
	}
	return s, nil
}

// Plans exposes the per-part plans solved so far (nil entries pending).
func (s *StagedSource) Plans() []*core.Plan { return s.sp.Plans }

// EdgeVolume implements VolumeSource.
func (s *StagedSource) EdgeVolume(edgeID int) (float64, bool) {
	loc, ok := s.sp.Partition.EdgeOf[edgeID]
	if !ok || s.condemned[loc[0]] {
		return 0, false
	}
	plan := s.sp.Plans[loc[0]]
	if plan == nil {
		return 0, false
	}
	return plan.EdgeVolume[loc[1]], true
}

// NodeVolume implements VolumeSource.
func (s *StagedSource) NodeVolume(nodeID int) (float64, bool) {
	loc, ok := s.localOf[nodeID]
	if !ok || s.condemned[loc[0]] {
		return 0, false // e.g. a split natural input: load full capacity
	}
	plan := s.sp.Plans[loc[0]]
	if plan == nil {
		return 0, false
	}
	return plan.NodeVolume[loc[1]], true
}

// Awaiting reports the unknown-volume node, and its port, whose
// measurement the partition realizing edgeID still waits for, following
// cut sources back to the partition that produces them. ok is false
// when the edge's partition waits for no measurement.
func (s *StagedSource) Awaiting(edgeID int) (node int, port string, ok bool) {
	loc, ok := s.sp.Partition.EdgeOf[edgeID]
	if !ok {
		return 0, "", false
	}
	return s.awaitingPart(loc[0])
}

func (s *StagedSource) awaitingPart(part int) (node int, port string, ok bool) {
	for _, b := range s.sp.Partition.Bindings {
		if b.Part != part {
			continue
		}
		switch {
		case b.SourceUnknown:
			if _, measured := s.measured[[2]any{b.SourceID, b.SourcePort}]; !measured {
				return b.SourceID, b.SourcePort, true
			}
		case b.SourcePart >= 0 && b.SourcePart < part:
			// Parts are in dependency order, so the walk back ends.
			if _, produced := s.sp.Produced(b.SourceID); !produced {
				if node, port, ok := s.awaitingPart(b.SourcePart); ok {
					return node, port, true
				}
			}
		}
	}
	return 0, "", false
}

// Measured implements VolumeSource: records the measurement and solves
// every partition whose inputs have become available.
func (s *StagedSource) Measured(nodeID int, port string, volume float64) {
	s.measured[[2]any{nodeID, port}] = volume
	measure := func(orig int, p string) (float64, bool) {
		v, ok := s.measured[[2]any{orig, p}]
		return v, ok
	}
	for i := 0; i < s.sp.NumParts(); i++ {
		if s.sp.Plans[i] != nil {
			continue
		}
		ready := true
		for _, b := range s.sp.Partition.Bindings {
			if b.Part != i {
				continue
			}
			switch {
			case b.SourceUnknown:
				if _, ok := measure(b.SourceID, b.SourcePort); !ok {
					ready = false
				}
			case b.SourcePart >= 0:
				// A cut known-volume source: defer until its part solved.
				if _, ok := s.sp.Produced(b.SourceID); !ok {
					ready = false
				}
			}
			if !ready {
				break
			}
		}
		if !ready {
			continue
		}
		plan, err := s.sp.SolvePart(i, measure)
		if err != nil {
			// Record the failure instead of silently leaving the part
			// pending: a later "missing volume" would mask the root cause.
			s.solveErrs = append(s.solveErrs, fmt.Errorf("part %d: %w", i, err))
			continue
		}
		if s.check != nil && plan != nil && plan.Feasible() {
			if cerr := s.check(i, plan, s.sp.PartAvailability(i, measure)); cerr != nil {
				// Condemn the partition: withholding its volumes makes the
				// first draw fail-stop with this root cause attached, which
				// beats executing a plan the checker rejected.
				s.condemned[i] = true
				s.solveErrs = append(s.solveErrs, fmt.Errorf("part %d plan rejected: %w", i, cerr))
			}
		}
	}
}

// ensure interface compliance.
var (
	_ VolumeSource = PlanSource{}
	_ VolumeSource = IntPlanSource{}
	_ VolumeSource = (*StagedSource)(nil)
)
