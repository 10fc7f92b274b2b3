// Package regen implements the reactive-regeneration baseline that the
// paper compares against (BioStream's approach [10], §1 and §4.3):
// execution proceeds with no volume planning, fluids run out, and each
// shortfall is repaired by re-executing the backward slice of the depleted
// fluid's producer.
//
// The paper's Table 2 reports how many regenerations this triggers
// "assuming no volume management" (Glucose 2, Enzyme 85, Enzyme10 1313)
// without specifying BioStream's naive consumption model. Execute
// documents its model precisely:
//
//   - every operation fills its functional unit to the machine maximum,
//     drawing each operand in its mix fraction of that fill;
//   - input reservoirs start full; a depleted reservoir is re-loaded to
//     capacity from its input port, and a depleted intermediate fluid is
//     re-produced by re-executing its operation (recursively drawing its
//     own operands, which can cascade further regenerations);
//   - under the Lazy strategy every such re-execution (reload or
//     re-production) is one trigger, the count Table 2 reports.
//
// Absolute counts therefore differ from the paper's by a small model
// factor; the shape — near-zero for glucose, tens for enzyme, thousands
// for Enzyme10, and exactly zero under a DAGSolve/LP plan — is preserved,
// which is the claim the experiment supports.
package regen

import (
	"aquavol/internal/core"
	"aquavol/internal/dag"
)

// Report summarizes a planned execution.
type Report struct {
	// Regenerations counts shortfalls the plan left.
	Regenerations int
	// PerFluid breaks the count down by the regenerated node's name.
	PerFluid map[string]int
}

// CountPlanned replays consumption with the volumes of a feasible plan and
// reports the regenerations (zero, by construction of DAGSolve's flow
// conservation; this function exists to demonstrate it).
func CountPlanned(plan *core.Plan) *Report {
	g := plan.Graph
	rep := &Report{PerFluid: map[string]int{}}
	avail := map[*dag.Node]float64{}
	for _, n := range g.Nodes() {
		if n == nil {
			continue
		}
		if n.IsSource() {
			avail[n] = plan.NodeVolume[n.ID()]
		}
	}
	for _, c := range scheduleOrder(g) {
		if c.IsSource() {
			continue
		}
		for _, e := range c.In() {
			need := plan.EdgeVolume[e.ID()]
			if avail[e.From]+1e-6 < need {
				rep.Regenerations++
				rep.PerFluid[e.From.Name]++
				avail[e.From] += need // regenerate exactly the shortfall
			}
			avail[e.From] -= need
		}
		// Plan.Production is net of excess discard; the excess edge itself
		// is also drawn from the node, so stock the gross production.
		avail[c] = plan.Production[c.ID()] / (1 - c.Discard)
	}
	return rep
}

// scheduleOrder is the deterministic execution order: topological,
// breaking ties by node id (which matches front-end program order).
// TopoOrder already breaks ties by smallest id; TestScheduleOrderIsTopo
// asserts the properties CountPlanned relies on.
func scheduleOrder(g *dag.Graph) []*dag.Node {
	return g.TopoOrder()
}

// BackwardSlice returns the nodes whose re-execution regenerates target:
// the transitive producers of target, in topological order ending with
// target itself (the program slice of §3.4.2 / Tip's survey [11]).
func BackwardSlice(g *dag.Graph, target *dag.Node) []*dag.Node {
	need := map[*dag.Node]bool{target: true}
	var visit func(n *dag.Node)
	visit = func(n *dag.Node) {
		for _, e := range n.In() {
			if !need[e.From] {
				need[e.From] = true
				visit(e.From)
			}
		}
	}
	visit(target)
	var out []*dag.Node
	for _, n := range g.TopoOrder() {
		if need[n] {
			out = append(out, n)
		}
	}
	return out
}
