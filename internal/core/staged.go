package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"aquavol/internal/budget"
	"aquavol/internal/dag"
)

// Measure supplies run-time volume measurements for unknown-volume nodes:
// given a node id in the ORIGINAL graph and a producer port, it reports
// the measured volume. The simulator (or real hardware) implements this.
type Measure func(origNodeID int, port string) (float64, bool)

// StagedPlan handles assays with statically-unknown volumes (§3.5). The
// DAG is partitioned at unknown-volume nodes; Vnorms for every partition
// are computed at compile time; absolute volume assignment for a partition
// is deferred until the volumes of its constrained inputs are known — at
// run time, immediately after the producing separation has been measured.
//
// Usage: create the plan at compile time, then call SolvePart(i, measure)
// for i = 0..NumParts()-1 in order as execution proceeds. Parts whose
// constrained inputs are all static solve with measure == nil.
type StagedPlan struct {
	cfg Config
	// Partition is the underlying graph partition.
	Partition *dag.PartitionResult
	// Vnorms holds the compile-time backward-pass results per part.
	Vnorms []*Vnorms
	// Plans holds the per-part volume plans, filled in by SolvePart.
	Plans []*Plan
	// UsedLP records, per part, whether the LP fallback produced the plan.
	UsedLP []bool

	// produced caches planned production volumes of cut known-volume
	// nodes, keyed by original node id, so later parts can compute
	// constrained-input availability.
	produced map[int]float64
}

// ErrPartOrder reports SolvePart called before its producing parts.
var ErrPartOrder = errors.New("core: part solved out of order")

// NewStagedPlan partitions g and computes every partition's Vnorms. The
// graph is not mutated.
func NewStagedPlan(g *dag.Graph, cfg Config) (*StagedPlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	part, err := dag.Partition(g)
	if err != nil {
		return nil, err
	}
	sp := &StagedPlan{
		cfg:       cfg,
		Partition: part,
		Vnorms:    make([]*Vnorms, len(part.Parts)),
		Plans:     make([]*Plan, len(part.Parts)),
		UsedLP:    make([]bool, len(part.Parts)),
		produced:  map[int]float64{},
	}
	for i, pg := range part.Parts {
		vn, err := computeVnormsBudgeted(pg, cfg.SafetyMargin, cfg.Budget)
		if err != nil {
			if budget.IsStop(err) {
				return nil, err
			}
			return nil, fmt.Errorf("core: part %d: %w", i, err)
		}
		sp.Vnorms[i] = vn
	}
	return sp, nil
}

// NumParts reports the number of partitions.
func (sp *StagedPlan) NumParts() int { return len(sp.Partition.Parts) }

// Produced reports the planned production of a cut known-volume node
// (keyed by original node id) once its part has been solved. Runtime
// sources use it to defer dependent parts instead of solving out of
// order.
func (sp *StagedPlan) Produced(origNodeID int) (float64, bool) {
	v, ok := sp.produced[origNodeID]
	return v, ok
}

// Static reports whether part i can be solved at compile time (no
// run-time-measured constrained inputs).
func (sp *StagedPlan) Static(i int) bool {
	for _, b := range sp.Partition.Bindings {
		if b.Part == i && b.SourceUnknown {
			return false
		}
	}
	return true
}

// bindingFor finds the binding describing a constrained-input node of part
// i, by part-local node id.
func (sp *StagedPlan) bindingFor(part, nodeID int) (dag.Binding, bool) {
	for _, b := range sp.Partition.Bindings {
		if b.Part == part && b.NodeID == nodeID {
			return b, true
		}
	}
	return dag.Binding{}, false
}

// PartAvailability returns the Availability function SolvePart uses for
// part i: each constrained input gets share × (MaxCapacity | planned
// production | measured volume) depending on whether its source is a
// natural input, a cut known-volume node from an earlier part, or an
// unknown-volume node resolved through measure. It is exported so an
// independent checker (internal/certify) can re-derive the exact
// availability limits a part was solved under.
func (sp *StagedPlan) PartAvailability(i int, measure Measure) Availability {
	return func(ci *dag.Node) (float64, bool) {
		b, ok := sp.bindingFor(i, ci.ID())
		if !ok {
			return 0, false
		}
		switch {
		case b.SourcePart == -1: // natural input split statically
			return b.Share * sp.cfg.MaxCapacity, true
		case b.SourceUnknown:
			if measure == nil {
				return 0, false
			}
			v, ok := measure(b.SourceID, b.SourcePort)
			if !ok {
				return 0, false
			}
			return b.Share * v, true
		default: // cut known-volume node planned in an earlier part
			v, ok := sp.produced[b.SourceID]
			if !ok {
				return 0, false
			}
			return b.Share * v, true
		}
	}
}

// Config reports the configuration the staged plan was built with, so
// downstream consumers (certification, diagnostics) see the same limits
// the solver used.
func (sp *StagedPlan) Config() Config { return sp.cfg }

// SolvePart assigns absolute volumes for part i. Availability of each
// constrained input is share × (MaxCapacity | planned production |
// measured volume) depending on whether its source is a natural input, a
// cut known-volume node from an earlier part, or an unknown-volume node
// (in which case measure must report it).
//
// DAGSolve is attempted first; on underflow the LP formulation of the part
// is tried before giving up (mirroring the hierarchy; DAG transforms are
// not attempted inside partitions).
func (sp *StagedPlan) SolvePart(i int, measure Measure) (*Plan, error) {
	if i < 0 || i >= sp.NumParts() {
		return nil, fmt.Errorf("core: part %d out of range [0,%d)", i, sp.NumParts())
	}
	// Poll at the part boundary; Dispense/SolveLP below charge the meter.
	if err := sp.cfg.Budget.Err(); err != nil {
		return nil, err
	}
	avail := sp.PartAvailability(i, measure)
	// Pre-validate ordering: every non-static source must be resolvable.
	for _, b := range sp.Partition.Bindings {
		if b.Part != i || b.SourcePart == -1 || b.SourceUnknown {
			continue
		}
		if _, ok := sp.produced[b.SourceID]; !ok {
			return nil, fmt.Errorf("%w: part %d needs production of node %d (part %d)",
				ErrPartOrder, i, b.SourceID, b.SourcePart)
		}
	}

	plan, err := Dispense(sp.Vnorms[i], sp.cfg, avail)
	if err != nil {
		return nil, err
	}
	if !plan.Feasible() {
		lpPlan, lerr := SolveLP(sp.Partition.Parts[i], sp.cfg, FormulateOptions{}, avail)
		if lerr == nil && lpPlan.Feasible() {
			plan = lpPlan
			sp.UsedLP[i] = true
		} else if lerr != nil && !errors.Is(lerr, ErrLPInfeasible) {
			return nil, lerr
		}
	}
	sp.Plans[i] = plan

	// Record planned productions for downstream parts.
	pg := sp.Partition.Parts[i]
	for local, orig := range sp.Partition.OrigOf[i] {
		n := pg.Node(local)
		if n == nil || n.Unknown {
			continue // unknown productions come from measurements
		}
		sp.produced[orig] = plan.Production[local]
	}
	return plan, nil
}

// SolveStatic solves every part that needs no run-time measurement and
// is not solved yet, in order, and returns the indices it solved.
// Typically called at compile time; the remaining parts are solved during
// execution as measurements arrive.
func (sp *StagedPlan) SolveStatic() ([]int, error) {
	var done []int
	for i := 0; i < sp.NumParts(); i++ {
		if !sp.Static(i) || sp.Plans[i] != nil {
			continue
		}
		// A static part may still depend on productions of earlier static
		// parts; those are filled in as we go. Parts are in dependency
		// order, so a single pass suffices.
		ready := true
		for _, b := range sp.Partition.Bindings {
			if b.Part == i && b.SourcePart >= 0 && !b.SourceUnknown {
				if _, ok := sp.produced[b.SourceID]; !ok {
					ready = false
				}
			}
		}
		if !ready {
			continue
		}
		if _, err := sp.SolvePart(i, nil); err != nil {
			return done, err
		}
		done = append(done, i)
	}
	return done, nil
}

// Fork returns a copy of sp for one run: parts solved so far are shared,
// and parts solved later land in the copy only. The partition and Vnorms
// are read-only after construction and shared too.
func (sp *StagedPlan) Fork() *StagedPlan {
	f := *sp
	f.Plans, f.UsedLP, f.produced = slices.Clone(sp.Plans), slices.Clone(sp.UsedLP), maps.Clone(sp.produced)
	return &f
}
