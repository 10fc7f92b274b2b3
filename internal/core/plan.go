package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"aquavol/internal/dag"
)

// volTol absorbs float rounding when comparing volumes against hardware
// limits.
const volTol = 1e-9

// Underflow describes one dispense that fell below the hardware minimum.
type Underflow struct {
	// Edge is the offending edge's id in the plan's graph, or -1 when the
	// underflow is a node-minimum violation.
	Edge int
	// Node is the consuming node's id.
	Node int
	// Volume is the assigned volume and Minimum the violated threshold.
	Volume, Minimum float64
}

func (u Underflow) String() string {
	where := fmt.Sprintf("edge %d into node %d", u.Edge, u.Node)
	if u.Edge < 0 {
		where = fmt.Sprintf("node %d total input", u.Node)
	}
	return fmt.Sprintf("underflow: %s gets %.4g nl < minimum %.4g nl", where, u.Volume, u.Minimum)
}

// Plan is an absolute volume assignment for one assay DAG (or one
// partition of it). All volumes are in nanoliters. Slices are indexed by
// node/edge ids of Graph; entries for deleted ids are zero.
type Plan struct {
	// Graph is the (possibly transformed) DAG the plan covers.
	Graph *dag.Graph
	// Method identifies which solver produced the plan: "dagsolve" or
	// "lp".
	Method string
	// NodeVnorm and EdgeVnorm are the relative volumes of §3.3 (only set
	// by DAGSolve; nil for LP plans). A node's Vnorm measures its total
	// *input-side* volume, normalized so every real output leaf is 1.
	NodeVnorm, EdgeVnorm []float64
	// NodeVolume is each node's total input volume (for sources: the
	// volume drawn/produced). EdgeVolume is the volume routed along each
	// edge.
	NodeVolume, EdgeVolume []float64
	// Production is each node's output-side volume after applying OutFrac
	// and excess discard.
	Production []float64
	// Scale is the factor that converted Vnorms to volumes (DAGSolve
	// only).
	Scale float64
	// Duals and ReducedCosts carry the LP optimality certificate when
	// Method is "lp": one dual per formulation constraint (lp.ConID
	// order) and one reduced cost per formulation variable (lp.VarID
	// order), straight from lp.Solution. internal/certify re-derives the
	// formulation and verifies the KKT conditions against them. Nil for
	// dagsolve plans (whose certificate is the conservation identity
	// itself).
	Duals, ReducedCosts []float64
	// Underflows lists hardware-minimum violations; a plan is feasible
	// iff it is empty.
	Underflows []Underflow
}

// Feasible reports whether the plan satisfies every hardware minimum.
func (p *Plan) Feasible() bool { return len(p.Underflows) == 0 }

// MinDispense returns the smallest edge volume in the plan and the edge it
// occurs on. It returns (nil, +Inf) for plans with no edges.
func (p *Plan) MinDispense() (*dag.Edge, float64) {
	min := math.Inf(1)
	var at *dag.Edge
	for _, e := range p.Graph.Edges() {
		if e == nil {
			continue
		}
		if v := p.EdgeVolume[e.ID()]; v < min {
			min = v
			at = e
		}
	}
	return at, min
}

// MaxNodeVolume returns the largest node input volume and its node.
func (p *Plan) MaxNodeVolume() (*dag.Node, float64) {
	max := math.Inf(-1)
	var at *dag.Node
	for _, n := range p.Graph.Nodes() {
		if n == nil {
			continue
		}
		if v := p.NodeVolume[n.ID()]; v > max {
			max = v
			at = n
		}
	}
	return at, max
}

// OutputVolumes returns the volumes of the plan's real outputs (non-excess
// leaves), keyed by node name, for reporting.
func (p *Plan) OutputVolumes() map[string]float64 {
	out := map[string]float64{}
	for _, n := range p.Graph.Nodes() {
		if n != nil && n.IsLeaf() && n.Kind != dag.Excess {
			out[n.Name] = p.NodeVolume[n.ID()]
		}
	}
	return out
}

// checkMinimums populates Underflows from the assigned volumes.
func (p *Plan) checkMinimums(cfg Config) {
	// Size the list first: on an infeasible plan nearly every edge
	// underflows, and growing it by appends copies it over and over.
	k := 0
	for _, e := range p.Graph.Edges() {
		if e != nil && p.EdgeVolume[e.ID()] < cfg.LeastCount-volTol {
			k++
		}
	}
	p.Underflows = slices.Grow(p.Underflows, k)
	for _, e := range p.Graph.Edges() {
		if e == nil {
			continue
		}
		if v := p.EdgeVolume[e.ID()]; v < cfg.LeastCount-volTol {
			p.Underflows = append(p.Underflows, Underflow{
				Edge: e.ID(), Node: e.To.ID(), Volume: v, Minimum: cfg.LeastCount,
			})
		}
	}
	for _, n := range p.Graph.Nodes() {
		if n == nil || n.IsSource() {
			continue
		}
		if min := cfg.MinFor(n); min > cfg.LeastCount {
			if v := p.NodeVolume[n.ID()]; v < min-volTol {
				p.Underflows = append(p.Underflows, Underflow{
					Edge: -1, Node: n.ID(), Volume: v, Minimum: min,
				})
			}
		}
	}
}

// String renders the plan as a human-readable table of node volumes in
// topological order, for examples and debug output.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan (%s, scale %.4g):\n", p.Method, p.Scale)
	order := p.Graph.TopoOrder()
	for _, n := range order {
		fmt.Fprintf(&b, "  %-28s %8.3f nl", n.String(), p.NodeVolume[n.ID()])
		if p.NodeVnorm != nil {
			fmt.Fprintf(&b, "  (Vnorm %.4g)", p.NodeVnorm[n.ID()])
		}
		b.WriteByte('\n')
		ins := append([]*dag.Edge(nil), n.In()...)
		sort.Slice(ins, func(i, j int) bool { return ins[i].ID() < ins[j].ID() })
		for _, e := range ins {
			fmt.Fprintf(&b, "    <- %-22s %8.3f nl\n", e.From.Name, p.EdgeVolume[e.ID()])
		}
	}
	if len(p.Underflows) > 0 {
		b.WriteString("underflows:\n")
		for _, u := range p.Underflows {
			fmt.Fprintf(&b, "  %s\n", u)
		}
	}
	return b.String()
}

// ErrNeedsPartition reports a DAG containing unknown-volume nodes with
// consumers; such graphs must go through the staged/partitioned path
// (§3.5) rather than a single solve.
var ErrNeedsPartition = errors.New("core: graph has unknown-volume nodes with uses; partition first")
