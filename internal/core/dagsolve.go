package core

import (
	"errors"
	"fmt"
	"math"

	"aquavol/internal/budget"
	"aquavol/internal/dag"
)

// Vnorms is the result of DAGSolve's backward pass (§3.3, Fig. 4 lines
// 2-7): relative volumes for every node and edge, normalized so that every
// real output leaf has Vnorm 1. Vnorms are a pure function of the graph and
// can be computed at compile time even when absolute dispensing must wait
// for run-time measurements (§3.5).
type Vnorms struct {
	Graph *dag.Graph
	// Node holds each node's total-input-side relative volume; Edge holds
	// each edge's relative volume. Indexed by id.
	Node, Edge []float64
}

// MaxNode returns the node with the largest Vnorm (the dispensing
// bottleneck) and its value.
func (v *Vnorms) MaxNode() (*dag.Node, float64) {
	max := math.Inf(-1)
	var at *dag.Node
	for _, n := range v.Graph.Nodes() {
		if n == nil {
			continue
		}
		if x := v.Node[n.ID()]; x > max {
			max = x
			at = n
		}
	}
	return at, max
}

// ComputeVnorms runs the backward pass of DAGSolve. Leaves other than
// Excess sinks are seeded with Vnorm 1 (the paper's first artificial
// constraint: all outputs in equal proportion); every interior node's
// Vnorm is the sum of its outbound edge Vnorms (the second artificial
// constraint: flow conservation), adjusted for OutFrac shrinkage and for
// cascade excess (a node with Discard d produces 1/(1-d) times its
// forwarded volume; the surplus flows to its Excess sink, whose Vnorm is
// derived rather than seeded).
//
// The graph must validate and must not contain unknown-volume nodes with
// consumers (partition first, see Partition/NewStagedPlan).
func ComputeVnorms(g *dag.Graph) (*Vnorms, error) {
	return computeVnormsSeeded(g, func(*dag.Node) float64 { return 1 }, 0, nil)
}

// computeVnormsBudgeted is ComputeVnorms with Config.SafetyMargin
// applied: every non-leaf node plans (1+margin)× its consumers' draws,
// giving each level ε slack against metering jitter, dead volume, and
// evaporation. Margin 0 is exactly ComputeVnorms. bud (may be nil) is
// charged a work unit per node.
func computeVnormsBudgeted(g *dag.Graph, margin float64, bud *budget.Meter) (*Vnorms, error) {
	if margin < 0 || margin >= 1 || math.IsNaN(margin) {
		return nil, fmt.Errorf("core: safety margin must be in [0, 1), got %v", margin)
	}
	return computeVnormsSeeded(g, func(*dag.Node) float64 { return 1 }, margin, bud)
}

// Availability reports the absolute volume available at a constrained
// input, and whether it is known. Natural inputs never consult it.
type Availability func(ci *dag.Node) (float64, bool)

// StaticAvailability derives constrained-input availability for inputs
// split statically across partitions: share × MaxCapacity. It suffices for
// graphs whose constrained inputs all stem from natural inputs.
func StaticAvailability(cfg Config) Availability {
	return func(ci *dag.Node) (float64, bool) {
		if ci.SourceIsInput {
			return ci.Share * cfg.MaxCapacity, true
		}
		return 0, false
	}
}

// Dispense runs the forward pass of DAGSolve (Fig. 4 lines 8-11): absolute
// volumes are assigned by scaling Vnorms so that the largest node receives
// exactly MaxCapacity — or less, when a constrained input cannot supply its
// proportional share (§3.5: the scale is the minimum over constrained
// inputs of available/Vnorm).
//
// avail may be nil when the graph has no constrained inputs.
func Dispense(v *Vnorms, cfg Config, avail Availability) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := v.Graph
	_, maxV := v.MaxNode()
	if !(maxV > 0) {
		return nil, fmt.Errorf("core: degenerate graph: max Vnorm %v", maxV)
	}
	scale := cfg.MaxCapacity / maxV
	for _, n := range g.Nodes() {
		if n == nil || n.Kind != dag.ConstrainedInput {
			continue
		}
		if avail == nil {
			return nil, fmt.Errorf("core: constrained input %v but no availability provided", n)
		}
		a, ok := avail(n)
		if !ok {
			return nil, fmt.Errorf("core: availability for constrained input %v unknown", n)
		}
		if vn := v.Node[n.ID()]; vn > 0 && a/vn < scale {
			scale = a / vn
		}
	}
	p := &Plan{
		Graph:      g,
		Method:     "dagsolve",
		NodeVnorm:  v.Node,
		EdgeVnorm:  v.Edge,
		NodeVolume: make([]float64, len(v.Node)),
		EdgeVolume: make([]float64, len(v.Edge)),
		Production: make([]float64, len(v.Node)),
		Scale:      scale,
	}
	for _, n := range g.Nodes() {
		if n == nil {
			continue
		}
		if err := cfg.Budget.Charge(1); err != nil {
			return nil, err
		}
		id := n.ID()
		p.NodeVolume[id] = v.Node[id] * scale
		prod := v.Node[id]
		if !n.IsSource() {
			prod *= n.OutFrac
		}
		prod *= 1 - n.Discard
		p.Production[id] = prod * scale
	}
	for _, e := range g.Edges() {
		if e == nil {
			continue
		}
		if err := cfg.Budget.Charge(1); err != nil {
			return nil, err
		}
		p.EdgeVolume[e.ID()] = v.Edge[e.ID()] * scale
	}
	p.checkMinimums(cfg)
	return p, nil
}

// DAGSolve is the complete Fig. 4 algorithm: ComputeVnorms followed by
// Dispense, honoring cfg.SafetyMargin. For graphs without constrained
// inputs avail may be nil; for statically-split inputs use
// StaticAvailability(cfg).
//
// DAGSolve is certified reentrant: it writes no package-level state and
// performs no IO, so concurrent calls — even over a shared, unmutated
// graph — are race-free. A non-nil cfg.Budget is charged a work unit per
// node visit and per dispensed node/edge; a tripped budget aborts with
// its typed cause.
//
//fluidvet:parallelsafe
func DAGSolve(g *dag.Graph, cfg Config, avail Availability) (*Plan, error) {
	v, err := computeVnormsBudgeted(g, cfg.SafetyMargin, cfg.Budget)
	if err != nil {
		return nil, err
	}
	return Dispense(v, cfg, avail)
}

// solve is the one DAGSolve→LP path of every constrained solve: a Manage
// attempt, a staged part and a residual replan. It dispenses vn under
// avail and, when that plan underflows and withLP is set, solves the RVol
// LP over the same graph and availability. It returns the DAGSolve plan,
// which carries the underflow diagnostics, and the LP plan when the
// fallback found a feasible one. A Dispense error comes back with a nil
// plan, and an LP error other than infeasibility with the DAGSolve plan.
func solve(vn *Vnorms, cfg Config, avail Availability, withLP bool) (plan, lpPlan *Plan, err error) {
	plan, err = Dispense(vn, cfg, avail)
	if err != nil || plan.Feasible() || !withLP {
		return plan, nil, err
	}
	lpPlan, err = SolveLP(vn.Graph, cfg, FormulateOptions{}, avail)
	switch {
	case err != nil && !errors.Is(err, ErrLPInfeasible):
		return plan, nil, err
	case err != nil || !lpPlan.Feasible():
		return plan, nil, nil
	}
	return plan, lpPlan, nil
}
