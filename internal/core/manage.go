package core

import (
	"errors"
	"fmt"
	"sort"

	"aquavol/internal/dag"
)

// TransformKind distinguishes the DAG rewrites of §3.4.
type TransformKind int

const (
	// TransformCascade splits an extreme-ratio mix into cascaded stages.
	TransformCascade TransformKind = iota
	// TransformReplicate replicates a heavily-used node.
	TransformReplicate
)

func (k TransformKind) String() string {
	switch k {
	case TransformCascade:
		return "cascade"
	case TransformReplicate:
		return "replicate"
	default:
		return fmt.Sprintf("TransformKind(%d)", int(k))
	}
}

// Transform records one DAG rewrite. Node identifies the target by its id
// in the graph state produced by replaying all *earlier* transforms, which
// makes the sequence deterministically replayable on a fresh clone.
type Transform struct {
	Kind   TransformKind
	Node   int
	Levels int // cascade depth
	Copies int // replica count
}

func (t Transform) String() string {
	switch t.Kind {
	case TransformCascade:
		return fmt.Sprintf("cascade(node %d, %d levels)", t.Node, t.Levels)
	default:
		return fmt.Sprintf("replicate(node %d, %d copies)", t.Node, t.Copies)
	}
}

// ManageOptions tunes the hierarchy driver.
type ManageOptions struct {
	// SkipLP disables the LP fallback between DAGSolve and the DAG
	// transforms (useful in benchmarks isolating DAGSolve).
	SkipLP bool
}

// ManageResult is the outcome of Manage.
type ManageResult struct {
	// Plan is the feasible volume plan.
	Plan *Plan
	// Graph is the transformed DAG the plan covers (a clone; the input
	// graph is never mutated).
	Graph *dag.Graph
	// UsedLP reports whether the final plan came from the LP fallback
	// rather than DAGSolve.
	UsedLP bool
	// Transforms lists the DAG rewrites that were needed, in order.
	Transforms []Transform
	// Attempts is the number of solve rounds.
	Attempts int
	// Trace is a human-readable decision log.
	Trace []string
}

// ErrUnmanageable reports that no feasible volume assignment was found
// within the attempt budget; the caller must fall back on run-time
// regeneration or reject the assay (Fig. 6's terminal states).
var ErrUnmanageable = errors.New("core: no feasible volume assignment found")

// ErrResourceLimit reports that cascading/replication grew the DAG beyond
// the configured PLoC resources, failing compilation (§3.4.2).
var ErrResourceLimit = errors.New("core: transformed DAG exceeds PLoC resources")

// Manage runs the volume-management hierarchy of Fig. 6 on a
// statically-known assay DAG: DAGSolve first; the full LP on DAGSolve
// underflow; then, if both fail, cascading (when the underflow sits on an
// extreme-ratio mix) or static replication (numerous uses), re-entering
// the hierarchy after each rewrite.
//
// g is never mutated. Graphs containing unknown-volume nodes with uses
// must use NewStagedPlan instead.
func Manage(g *dag.Graph, cfg Config, opts ManageOptions) (*ManageResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	avail := StaticAvailability(cfg)
	res := &ManageResult{}
	tracef := func(format string, args ...any) {
		res.Trace = append(res.Trace, fmt.Sprintf(format, args...))
	}

	for attempt := 0; attempt < cfg.maxAttempts(); attempt++ {
		// Poll at the attempt boundary: transform replay and diagnosis are
		// cheap, but a cancelled caller must not enter another round.
		if err := cfg.Budget.Err(); err != nil {
			return nil, err
		}
		res.Attempts = attempt + 1
		cur, err := replay(g, res.Transforms)
		if err != nil {
			return nil, err
		}
		res.Graph = cur
		if cfg.MaxFluidNodes > 0 && WetNodeCount(cur) > cfg.MaxFluidNodes {
			tracef("transformed DAG has %d wet nodes > limit %d", WetNodeCount(cur), cfg.MaxFluidNodes)
			return res, ErrResourceLimit
		}

		vn, err := computeVnormsBudgeted(cur, cfg.SafetyMargin, cfg.Budget)
		if err != nil {
			return nil, err
		}
		plan, lpPlan, err := solve(vn, cfg, avail, !opts.SkipLP)
		if err != nil {
			return nil, err
		}
		if plan.Feasible() {
			tracef("attempt %d: DAGSolve feasible", attempt+1)
			res.Plan = plan
			return res, nil
		}
		_, minVol := plan.MinDispense()
		tracef("attempt %d: DAGSolve underflow (min dispense %.4g nl)", attempt+1, minVol)
		switch {
		case lpPlan != nil:
			tracef("attempt %d: LP fallback feasible", attempt+1)
			res.Plan = lpPlan
			res.UsedLP = true
			return res, nil
		case !opts.SkipLP:
			tracef("attempt %d: LP infeasible too", attempt+1)
		}

		t, why, ok := diagnose(plan, cur, cfg)
		if !ok {
			tracef("attempt %d: no applicable transform (%s)", attempt+1, why)
			return res, ErrUnmanageable
		}
		tracef("attempt %d: applying %s (%s)", attempt+1, t, why)
		res.Transforms = append(res.Transforms, t)
	}
	return res, ErrUnmanageable
}

// replay applies the transform sequence to a fresh clone of g.
func replay(g *dag.Graph, ts []Transform) (*dag.Graph, error) {
	cur := g.Clone()
	for _, t := range ts {
		n := cur.Node(t.Node)
		if n == nil {
			return nil, fmt.Errorf("core: transform %v targets missing node", t)
		}
		switch t.Kind {
		case TransformCascade:
			if err := cur.Cascade(n, t.Levels); err != nil {
				return nil, err
			}
		case TransformReplicate:
			vn, err := ComputeVnorms(cur)
			if err != nil {
				return nil, err
			}
			if _, err := cur.Replicate(n, t.Copies, BalancedAssign(n, vn, t.Copies)); err != nil {
				return nil, err
			}
		}
	}
	return cur, nil
}

// BalancedAssign distributes a node's outbound uses across replicas so that
// per-replica Vnorm load is as even as possible: edges are taken in
// descending Vnorm order and placed on the least-loaded replica. It is
// the assignment Manage replicates with, for Graph.Replicate.
func BalancedAssign(n *dag.Node, vn *Vnorms, copies int) func(*dag.Edge) int {
	type load struct {
		idx int
		sum float64
	}
	loads := make([]load, copies)
	for i := range loads {
		loads[i].idx = i
	}
	edges := append([]*dag.Edge(nil), n.Out()...)
	sort.Slice(edges, func(i, j int) bool {
		vi, vj := vn.Edge[edges[i].ID()], vn.Edge[edges[j].ID()]
		if vi != vj {
			return vi > vj
		}
		return edges[i].ID() < edges[j].ID()
	})
	assign := make(map[*dag.Edge]int, len(edges))
	for _, e := range edges {
		min := 0
		for i := 1; i < copies; i++ {
			if loads[i].sum < loads[min].sum {
				min = i
			}
		}
		assign[e] = loads[min].idx
		loads[min].sum += vn.Edge[e.ID()]
	}
	return func(e *dag.Edge) int { return assign[e] }
}

// diagnose picks the next transform from a failing DAGSolve plan, per the
// right-hand side of Fig. 6: an underflow at an extreme-ratio two-part mix
// is attributed to the ratio (cascade); anything else is attributed to
// numerous uses (replicate the dispensing bottleneck, i.e. the node with
// the largest Vnorm).
func diagnose(plan *Plan, g *dag.Graph, cfg Config) (Transform, string, bool) {
	if edge, _ := plan.MinDispense(); edge != nil {
		n := edge.To
		if levels := CascadeDepth(n, cfg.TriggerSkew()); levels > 0 {
			return Transform{Kind: TransformCascade, Node: n.ID(), Levels: levels},
				fmt.Sprintf("mix %s skew %.3g exceeds trigger %.3g", n.Name, dag.ExtremeRatio(n), cfg.TriggerSkew()), true
		}
	}
	// Replicate the bottleneck: largest-Vnorm node that can be replicated.
	type cand struct {
		n *dag.Node
		v float64
	}
	var cands []cand
	for _, n := range g.Nodes() {
		if n == nil || n.Unknown || n.Kind == dag.Excess || n.Kind == dag.ConstrainedInput {
			continue
		}
		cands = append(cands, cand{n, plan.NodeVnorm[n.ID()]})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].v != cands[j].v {
			return cands[i].v > cands[j].v
		}
		return cands[i].n.ID() < cands[j].n.ID()
	})
	for _, c := range cands {
		if len(c.n.Out()) < 2 {
			continue // replication cannot split a single use
		}
		return Transform{Kind: TransformReplicate, Node: c.n.ID(), Copies: 2},
			fmt.Sprintf("node %s is the Vnorm bottleneck (%.4g)", c.n.Name, c.v), true
	}
	return Transform{}, "no cascade target and no replicable bottleneck", false
}

// CascadeDepth is the one rule for when a mix is cascaded (§3.4.1): the
// depth dag.CascadeLevels picks to bring two-part mix n's stages under
// the skew bound, or 0 when the mix already fits, no supported depth
// fits, n is not a two-part mix, or CascadeForbidden(n). The Fig. 6
// hierarchy cascades with bound Config.TriggerSkew; a mix needs
// cascading to execute at all with bound Config.MaxSkew.
func CascadeDepth(n *dag.Node, bound float64) int {
	if n.Kind != dag.Mix || len(n.In()) != 2 || CascadeForbidden(n) {
		return 0
	}
	return dag.CascadeLevels(dag.ExtremeRatio(n), bound)
}

// CascadeForbidden reports whether the mix involves fluids for which
// excess production is disallowed (NOEXCESS), so it is never cascaded.
func CascadeForbidden(n *dag.Node) bool {
	if n.NoExcess {
		return true
	}
	for _, e := range n.In() {
		if e.From.NoExcess {
			return true
		}
	}
	return false
}

// WetNodeCount counts nodes that occupy fluidic resources (everything but
// synthetic bookkeeping sinks), the count Config.MaxFluidNodes bounds.
func WetNodeCount(g *dag.Graph) int {
	c := 0
	for _, n := range g.Nodes() {
		if n != nil && n.Kind != dag.Excess {
			c++
		}
	}
	return c
}
