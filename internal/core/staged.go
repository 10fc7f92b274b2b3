package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"aquavol/internal/budget"
	"aquavol/internal/dag"
)

// Measure reports the volume of fluid read at run time from an
// executed node's output port, given the node's id in the ORIGINAL graph
// and the port: a separation's measured output when a staged part is
// solved, or a live vessel reading (already discounted by any
// caller-side safety padding) when a residual is replanned. The
// simulator (or real hardware) supplies it.
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

	// inputs holds each part's constrained-input bindings, in
	// Partition.Bindings order.
	inputs [][]dag.Binding
	// produced caches planned production volumes of cut known-volume
	// nodes, keyed by original node id, so later parts can compute
	// constrained-input availability.
	produced map[int]float64
}

// ErrPartOrder reports SolvePart called on a part that still waits for
// a run-time measurement or for an earlier part's production.
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
		inputs:    make([][]dag.Binding, len(part.Parts)),
		produced:  map[int]float64{},
	}
	for _, b := range part.Bindings {
		sp.inputs[b.Part] = append(sp.inputs[b.Part], b)
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

// Waiting is the one readiness test for part i: it reports the first of
// the part's constrained inputs whose volume is not known yet, either a
// run-time measurement that measure does not report (a nil measure
// reports none) or the planned production of a cut node whose part is
// not solved. It reports false when part i can be solved now.
func (sp *StagedPlan) Waiting(i int, measure Measure) (dag.Binding, bool) {
	for _, b := range sp.inputs[i] {
		if _, ok := available(b, sp.cfg, measure, sp.produced); !ok {
			return b, true
		}
	}
	return dag.Binding{}, false
}

// PartAvailability returns the Availability function SolvePart uses for
// part i, each constrained input resolved through its binding by the one
// availability rule (see available). It is exported so an independent
// checker (internal/certify) can re-derive the exact availability limits
// a part was solved under.
func (sp *StagedPlan) PartAvailability(i int, measure Measure) Availability {
	return bindingAvailability(sp.inputs[i], sp.cfg, measure, sp.produced)
}

// bindingAvailability resolves each constrained input of one graph
// through its binding in bs.
func bindingAvailability(bs []dag.Binding, cfg Config, measure Measure, produced map[int]float64) Availability {
	return func(ci *dag.Node) (float64, bool) {
		for _, b := range bs {
			if b.NodeID == ci.ID() {
				return available(b, cfg, measure, produced)
			}
		}
		return 0, false
	}
}

// available is the one rule for how much fluid a constrained input can
// draw: b.Share times the volume measure reports for a source read at
// run time, times MaxCapacity for a natural input split statically, or
// times the planned production of a cut node from an earlier part
// (produced, keyed by original node id).
func available(b dag.Binding, cfg Config, measure Measure, produced map[int]float64) (float64, bool) {
	v, ok := cfg.MaxCapacity, true
	switch {
	case b.SourceUnknown:
		if measure == nil {
			return 0, false
		}
		v, ok = measure(b.SourceID, b.SourcePort)
	case b.SourcePart >= 0:
		v, ok = produced[b.SourceID]
	}
	if !ok {
		return 0, false
	}
	return b.Share * v, true
}

// Config reports the configuration the staged plan was built with, so
// downstream consumers (certification, diagnostics) see the same limits
// the solver used.
func (sp *StagedPlan) Config() Config { return sp.cfg }

// SolvePart assigns absolute volumes for part i, once Waiting reports
// nothing left to wait for (ErrPartOrder otherwise), under
// PartAvailability(i, measure). Like a Manage attempt it dispenses the
// part's Vnorms and falls back on the LP when that underflows; DAG
// transforms are not attempted inside partitions.
func (sp *StagedPlan) SolvePart(i int, measure Measure) (*Plan, error) {
	if i < 0 || i >= sp.NumParts() {
		return nil, fmt.Errorf("core: part %d out of range [0,%d)", i, sp.NumParts())
	}
	// Poll at the part boundary; the solve below charges the meter.
	if err := sp.cfg.Budget.Err(); err != nil {
		return nil, err
	}
	if b, waiting := sp.Waiting(i, measure); waiting {
		if b.SourceUnknown {
			return nil, fmt.Errorf("%w: part %d needs the measurement of unknown-volume node %d port %q",
				ErrPartOrder, i, b.SourceID, b.SourcePort)
		}
		return nil, fmt.Errorf("%w: part %d needs production of node %d (part %d)",
			ErrPartOrder, i, b.SourceID, b.SourcePart)
	}
	plan, lpPlan, err := solve(sp.Vnorms[i], sp.cfg, sp.PartAvailability(i, measure), true)
	if err != nil {
		return nil, err
	}
	if lpPlan != nil {
		plan = lpPlan
		sp.UsedLP[i] = true
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
		// Parts are in dependency order, so a part waiting only on
		// earlier static parts is ready by the time the pass reaches it.
		if _, waiting := sp.Waiting(i, nil); waiting || sp.Plans[i] != nil {
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
// and parts solved later land in the copy only. The partition, Vnorms
// and bindings by part are read-only after construction and shared too.
func (sp *StagedPlan) Fork() *StagedPlan {
	f := *sp
	f.Plans, f.UsedLP, f.produced = slices.Clone(sp.Plans), slices.Clone(sp.UsedLP), maps.Clone(sp.produced)
	return &f
}
