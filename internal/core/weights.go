package core

import (
	"fmt"
	"math"
	"sort"

	"aquavol/internal/budget"
	"aquavol/internal/dag"
)

// This file implements two refinements the paper describes around the
// base DAGSolve algorithm:
//
//   - §3.3: "the Vnorms could be set to arbitrary values to produce
//     outputs in arbitrary ratios ... unless we have information to
//     prefer production of one output fluid over another, we initialize
//     all output volumes to be equal." ComputeVnormsWeighted exposes that
//     preference knob.
//
//   - §3.5, loops with independent iterations: "instead of assigning the
//     largest Vnorm to the default maximum, we pick the output node with
//     the smallest Vnorm and assign it the programmer-specified volume."
//     DispenseForMinOutputs implements that inverse dispensing mode,
//     which plans the smallest input volumes that still meet required
//     output volumes.

// ComputeVnormsWeighted is ComputeVnorms with per-leaf output weights:
// leaf (output) nodes are seeded with weight[id] instead of 1, producing
// output volumes in the given relative proportions. Leaves absent from
// the map get weight 1; weights must be positive.
func ComputeVnormsWeighted(g *dag.Graph, weight map[int]float64) (*Vnorms, error) {
	for _, id := range sortedIDs(weight) {
		w := weight[id]
		n := g.Node(id)
		if n == nil {
			return nil, fmt.Errorf("core: output weight for missing node %d", id)
		}
		if !n.IsLeaf() || n.Kind == dag.Excess {
			return nil, fmt.Errorf("core: output weight for non-output node %v", n)
		}
		if !(w > 0) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("core: output weight for %v must be positive and finite, got %v", n, w)
		}
	}
	v, err := computeVnormsSeeded(g, func(n *dag.Node) float64 {
		if w, ok := weight[n.ID()]; ok {
			return w
		}
		return 1
	}, 0, nil)
	return v, err
}

// DispenseForMinOutputs assigns absolute volumes so that every output
// listed in minVol (node id → nl) receives AT LEAST that volume, using as
// little fluid as possible: the binding output fixes the scale and
// everything else follows proportionally. It fails with overflow
// underflows recorded in the plan if meeting the minimums would exceed
// hardware capacity anywhere, and with the usual least-count underflows
// if the required scale is too small.
//
// This is the §3.5 dispensing mode for while-loop bodies whose required
// per-iteration output volumes are known: over-provisioning of the inputs
// (via static replication) is the caller's job; this computes the
// per-iteration demand.
func DispenseForMinOutputs(v *Vnorms, cfg Config, minVol map[int]float64) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(minVol) == 0 {
		return nil, fmt.Errorf("core: DispenseForMinOutputs needs at least one required output volume")
	}
	g := v.Graph
	scale := 0.0
	for _, id := range sortedIDs(minVol) {
		want := minVol[id]
		n := g.Node(id)
		if n == nil || !n.IsLeaf() || n.Kind == dag.Excess {
			return nil, fmt.Errorf("core: required volume for non-output node %d", id)
		}
		if !(want > 0) {
			return nil, fmt.Errorf("core: required volume for %v must be positive, got %v", n, want)
		}
		if vn := v.Node[id]; vn > 0 && want/vn > scale {
			scale = want / vn
		}
	}
	p := &Plan{
		Graph:      g,
		Method:     "dagsolve-minout",
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
		id := n.ID()
		p.NodeVolume[id] = v.Node[id] * scale
		prod := v.Node[id]
		if !n.IsSource() {
			prod *= n.OutFrac
		}
		prod *= 1 - n.Discard
		p.Production[id] = prod * scale
		// Overflow is possible in this mode: the required outputs may
		// demand more than capacity upstream.
		if p.NodeVolume[id] > cfg.MaxCapacity+volTol {
			p.Underflows = append(p.Underflows, Underflow{
				Edge: -1, Node: id,
				Volume:  p.NodeVolume[id],
				Minimum: -cfg.MaxCapacity, // negative minimum marks an overflow record
			})
		}
	}
	for _, e := range g.Edges() {
		if e == nil {
			continue
		}
		p.EdgeVolume[e.ID()] = v.Edge[e.ID()] * scale
	}
	p.checkMinimums(cfg)
	return p, nil
}

// computeVnormsSeeded is the backward pass with a custom leaf seed and an
// optional safety margin: every non-leaf node's consumption is inflated
// by (1+margin) before computing its production, so each level of the
// plan carries ε slack against fluid loss. Margins scale a node's
// in-edges uniformly, preserving mix ratios, and the maximum node still
// defines the dispensing scale, so capacity is never exceeded. bud (may
// be nil) is charged one work unit per node visited.
func computeVnormsSeeded(g *dag.Graph, seed func(*dag.Node) float64, margin float64, bud *budget.Meter) (*Vnorms, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.NeedsPartition() {
		return nil, ErrNeedsPartition
	}
	order := g.TopoOrder()
	v := &Vnorms{
		Graph: g,
		Node:  make([]float64, len(g.Nodes())),
		Edge:  make([]float64, len(g.Edges())),
	}
	for i := len(order) - 1; i >= 0; i-- {
		if err := bud.Charge(1); err != nil {
			return nil, err
		}
		n := order[i]
		id := n.ID()
		var used float64
		switch {
		case n.Kind == dag.Excess:
			continue
		case n.IsLeaf():
			used = seed(n)
		default:
			for _, e := range n.Out() {
				if e.To.Kind == dag.Excess {
					continue
				}
				used += v.Edge[e.ID()]
			}
			used *= 1 + margin
		}
		production := used / (1 - n.Discard)
		input := production / n.OutFrac
		if n.IsSource() {
			v.Node[id] = production
		} else {
			v.Node[id] = input
		}
		for _, e := range n.In() {
			v.Edge[e.ID()] = e.Frac * input
		}
		for _, e := range n.Out() {
			if e.To.Kind == dag.Excess {
				ex := production * n.Discard
				v.Edge[e.ID()] = ex
				v.Node[e.To.ID()] = ex
			}
		}
	}
	return v, nil
}

// sortedIDs returns the map's node ids in increasing order, so
// validation errors and scale selection do not depend on map iteration
// order.
func sortedIDs(m map[int]float64) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
