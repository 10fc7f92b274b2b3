package analysis

import (
	"fmt"
	"math"

	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/diag"
)

// volTol absorbs floating-point noise in volume comparisons, matching the
// tolerance DAGSolve's feasibility checks use.
const volTol = 1e-9

// intervalPass is the volume-interval analysis: an abstract interpretation
// that propagates [min, max] bounds on every node's total input volume
// through the DAG and reports
//
//   - VOL001: definite underflow — some dispense cannot reach the least
//     count under ANY volume assignment a solver could choose;
//   - VOL002: definite overflow — some node needs more than MaxCapacity
//     under ANY volume assignment;
//   - VOL003: predicted DAGSolve underflow — core's own Dispense, the
//     proportional assignment of §3.3, underflows, so the Fig. 6
//     hierarchy will engage transforms or the LP fallback (advisory; the
//     program may still compile).
//
// Bounds are solver-independent: the forward pass uses only capacity and
// edge-fraction constraints (edge = frac × consumer input ≤ producer
// production ≤ derived maxima), the backward pass only least-count and
// conservation constraints (production ≥ Σ consumer draws, each ≥ least
// count). Because the LP's non-deficit constraint is an inequality —
// production may exceed uses — these are the only bounds every solver
// shares, which is what makes VOL001/VOL002 "definite".
//
// Demands flowing out of a cascadable mix are relaxed to their
// post-cascade values so a single extreme ratio does not flood ancestors
// with secondary findings; the mix itself is still reported (as a Warning,
// since cascading repairs it automatically).
func intervalPass(ctx *Context) diag.List {
	a := &intervalAnalysis{ctx: ctx, cfg: ctx.Cfg}
	a.forward()
	a.findUnderflows()
	a.backward()
	a.findOverflows()
	if !a.foundDefinite {
		a.predictDAGSolve()
	}
	return a.out
}

type intervalAnalysis struct {
	ctx *Context
	cfg core.Config
	out diag.List

	// maxIn[id] bounds node id's total input volume from above (production
	// for sources); maxProd[id] bounds the production available to
	// non-excess consumers.
	maxIn, maxProd []float64
	// minIn[id] bounds node id's total input volume from below as written;
	// minInEff is the post-transform relaxation used when propagating
	// demands upstream.
	minIn, minInEff []float64

	order []*dag.Node
	// flaggedUnder/flaggedOver mark nodes already reported, for root-cause
	// suppression and VOL001/VOL002 deduplication. poisoned marks nodes
	// whose error-severity underflow makes every demand they propagate
	// upstream meaningless — their ancestors stay silent.
	flaggedUnder, flaggedOver, poisoned map[int]bool
	foundDefinite                       bool
}

// outFracHi bounds OutFrac from above: unknown-volume nodes may retain any
// fraction of their input, so 1 is the only sound bound.
func outFracHi(n *dag.Node) float64 {
	if n.Unknown {
		return 1
	}
	return n.OutFrac
}

// forward computes maxIn/maxProd in topological order.
func (a *intervalAnalysis) forward() {
	g := a.ctx.Graph
	a.order = g.TopoOrder()
	a.maxIn = make([]float64, len(g.Nodes()))
	a.maxProd = make([]float64, len(g.Nodes()))
	cap := a.cfg.MaxCapacity
	for _, n := range a.order {
		id := n.ID()
		switch {
		case n.Kind == dag.ConstrainedInput:
			avail := cap
			if n.Share > 0 {
				avail = n.Share * cap
			}
			a.maxIn[id] = avail
			a.maxProd[id] = avail
		case n.IsSource():
			a.maxIn[id] = cap
			a.maxProd[id] = cap
		default:
			in := cap
			for _, e := range n.In() {
				// edge volume = frac × input(n) and ≤ producer's production.
				if b := a.maxProd[e.From.ID()] / e.Frac; b < in {
					in = b
				}
			}
			a.maxIn[id] = in
			a.maxProd[id] = in * outFracHi(n) * (1 - n.Discard)
		}
	}
}

// findUnderflows reports VOL001 with root-cause suppression: once a node
// is flagged, its descendants (whose bounds are squeezed by the same
// cause) stay silent.
func (a *intervalAnalysis) findUnderflows() {
	lc := a.cfg.LeastCount
	a.flaggedUnder = map[int]bool{}
	a.poisoned = map[int]bool{}
	blocked := map[int]bool{}
	for _, n := range a.order {
		id := n.ID()
		for _, e := range n.In() {
			if blocked[e.From.ID()] {
				blocked[id] = true
			}
		}
		if blocked[id] || n.Kind == dag.Excess {
			continue
		}
		flag := func(d diag.Diagnostic) {
			a.out = append(a.out, d)
			a.flaggedUnder[id] = true
			blocked[id] = true
			if d.Severity == diag.Error {
				a.foundDefinite = true
				a.poisoned[id] = true
			}
		}

		// Producer squeeze: the node cannot make enough product for even
		// one downstream dispense. No transform raises a yield.
		feedsWet := false
		for _, e := range n.Out() {
			if e.To.Kind != dag.Excess {
				feedsWet = true
				break
			}
		}
		if feedsWet && a.maxProd[id] < lc-volTol {
			flag(CodeUnderflow.New(a.ctx.PosOf(n),
				"%s can produce at most %.4g nl for downstream use (input ≤ %.4g nl, yield %.4g), below the least count %.4g nl",
				n.Name, a.maxProd[id], a.maxIn[id], outFracHi(n)*(1-n.Discard), lc).
				Suggest("raise the operation's yield or remove the downstream use; no volume assignment can dispense this product"))
			continue
		}
		if n.IsSource() {
			continue
		}

		// Dispense squeeze: some inbound edge cannot reach the least count
		// even at the node's maximal fill.
		var worst *dag.Edge
		worstVol := math.Inf(1)
		for _, e := range n.In() {
			if v := e.Frac * a.maxIn[id]; v < worstVol {
				worst, worstVol = e, v
			}
		}
		nodeMin := a.cfg.MinFor(n)
		switch {
		case worst != nil && worstVol < lc-volTol:
			if depth := core.CascadeDepth(n, a.cfg.MaxSkew()); depth > 0 {
				skew := dag.ExtremeRatio(n)
				// Cascading repairs this underflow, so the definite-Error
				// default downgrades to Warning here.
				flag(CodeUnderflow.NewWith(diag.Warning, a.ctx.PosOf(n),
					"mix %s: the %s component gets at most %.4g nl at any feasible scale, below the least count %.4g nl (mix skew %.4g exceeds MaxSkew %.4g)",
					n.Name, worst.From.Name, worstVol, lc, skew, a.cfg.MaxSkew()).
					Suggest("cascade depth %d suffices; the volume manager applies it automatically", depth))
			} else {
				flag(CodeUnderflow.New(a.ctx.PosOf(n),
					"%s: the %s component gets at most %.4g nl at any feasible scale, below the least count %.4g nl",
					n.Name, worst.From.Name, worstVol, lc).
					Suggest("no automatic transform applies (cascading needs a two-part mix of excess-permitting fluids); reduce the ratio skew or raise upstream volumes"))
			}
		case a.maxIn[id] < nodeMin-volTol:
			flag(CodeUnderflow.New(a.ctx.PosOf(n),
				"%s can receive at most %.4g nl, below the %.4g nl minimum for %s nodes",
				n.Name, a.maxIn[id], nodeMin, n.Kind))
		}
	}
}

// backward computes minIn/minInEff in reverse topological order.
func (a *intervalAnalysis) backward() {
	g := a.ctx.Graph
	lc := a.cfg.LeastCount
	a.minIn = make([]float64, len(g.Nodes()))
	a.minInEff = make([]float64, len(g.Nodes()))
	for i := len(a.order) - 1; i >= 0; i-- {
		n := a.order[i]
		id := n.ID()
		if n.Kind == dag.Excess {
			continue
		}
		demand := 0.0
		for _, e := range n.Out() {
			if e.To.Kind == dag.Excess {
				continue
			}
			d := e.Frac * a.minInEff[e.To.ID()]
			if d < lc {
				d = lc // every dispense must reach the least count
			}
			demand += d
		}
		need := demand / (outFracHi(n) * (1 - n.Discard))
		strict, eff := need, need
		if !n.IsSource() {
			floor := a.cfg.MinFor(n)
			for _, e := range n.In() {
				if f := lc / e.Frac; f > floor {
					floor = f
				}
			}
			if floor > strict {
				strict = floor
			}
			// Post-cascade the minor fraction improves to (1+R)^(-1/depth),
			// so ancestors only see the relaxed demand.
			effFloor := floor
			if depth := core.CascadeDepth(n, a.cfg.MaxSkew()); depth > 0 {
				R := dag.ExtremeRatio(n)
				effFloor = a.cfg.MinFor(n)
				if f := lc * math.Pow(1+R, 1/float64(depth)); f > effFloor {
					effFloor = f
				}
			}
			if effFloor > eff {
				eff = effFloor
			}
		}
		a.minIn[id] = strict
		a.minInEff[id] = eff
	}
}

// findOverflows reports VOL002 with downstream-root-cause suppression (the
// demand that overflows an ancestor originates at its consumers).
func (a *intervalAnalysis) findOverflows() {
	cap := a.cfg.MaxCapacity
	a.flaggedOver = map[int]bool{}
	blocked := map[int]bool{}
	for i := len(a.order) - 1; i >= 0; i-- {
		n := a.order[i]
		id := n.ID()
		if a.poisoned[id] {
			blocked[id] = true
		}
		for _, e := range n.Out() {
			if blocked[e.To.ID()] {
				blocked[id] = true
			}
		}
		if blocked[id] || a.flaggedUnder[id] || n.Kind == dag.Excess {
			continue
		}
		if a.minIn[id] <= cap+volTol {
			continue
		}
		a.flaggedOver[id] = true
		blocked[id] = true
		// Severity is context-dependent: a repairable overflow (cascading
		// or replication applies) downgrades to Warning.
		msg := fmt.Sprintf("%s needs at least %.4g nl under any volume assignment, above the maximum capacity %.4g nl",
			n.Name, a.minIn[id], cap)
		var d diag.Diagnostic
		switch depth := core.CascadeDepth(n, a.cfg.MaxSkew()); {
		case depth > 0:
			d = CodeOverflow.NewWith(diag.Warning, a.ctx.PosOf(n), "%s", msg).
				Suggest("cascade depth %d reduces the required volume; the volume manager applies it automatically", depth)
		case !n.Unknown && n.Kind != dag.ConstrainedInput && len(n.Out()) > 1:
			d = CodeOverflow.NewWith(diag.Warning, a.ctx.PosOf(n), "%s", msg).
				Suggest("the volume manager will replicate %s to split its %d uses", n.Name, len(n.Out()))
		default:
			d = CodeOverflow.New(a.ctx.PosOf(n), "%s", msg).
				Suggest("reduce downstream demand; replication cannot split this node")
			a.foundDefinite = true
		}
		a.out = append(a.out, d)
	}
}

// predictDAGSolve reports VOL003: per solve-time part, would the plain
// proportional assignment of §3.3 underflow? It runs core's own Dispense
// on the part's Vnorms and reports the plan's worst underflow. Statically
// split inputs bound the scale as they do in the volume manager; inputs
// measured at run time do not. Skipped entirely when a definite Error was
// already found (it would restate the root cause).
func (a *intervalAnalysis) predictDAGSolve() {
	cfg := a.cfg
	cfg.Budget = nil // the lint polls the meter between passes, never charges it
	static := core.StaticAvailability(cfg)
	avail := func(ci *dag.Node) (float64, bool) {
		if v, ok := static(ci); ok {
			return v, true
		}
		return math.Inf(1), true
	}
	for pi := range a.ctx.Parts() {
		part := &a.ctx.Parts()[pi]
		v, err := core.ComputeVnorms(part.g)
		if err != nil {
			continue
		}
		plan, err := core.Dispense(v, cfg, avail)
		if err != nil {
			continue
		}
		var worst *core.Underflow // largest shortfall below its minimum
		for i := range plan.Underflows {
			u := &plan.Underflows[i]
			if worst == nil || u.Minimum-u.Volume > worst.Minimum-worst.Volume+volTol {
				worst = u
			}
		}
		if worst == nil {
			continue
		}

		maxN, _ := v.MaxNode()
		var d diag.Diagnostic
		if worst.Edge >= 0 {
			e := part.g.Edges()[worst.Edge]
			to := e.To
			d = CodeDAGSolveUnderflow.New(a.ctx.posOfOrig(part.origID(to.ID())),
				"DAGSolve would underflow: %s receives %.4g nl from %s (least count %.4g nl) when %s is filled to capacity",
				to.Name, worst.Volume, e.From.Name, a.cfg.LeastCount, maxN.Name)
			// core's diagnose attributes an underflow at a mix above the
			// cascade trigger to the ratio and cascades it.
			if depth := core.CascadeDepth(to, a.cfg.TriggerSkew()); depth > 0 {
				d.Suggestion = fmt.Sprintf("the volume manager will cascade mix %s (depth %d)", to.Name, depth)
			} else {
				d.Suggestion = fmt.Sprintf("the volume manager will transform the DAG (replicating %s) or fall back on the LP solver", maxN.Name)
			}
		} else {
			n := part.g.Node(worst.Node)
			d = CodeDAGSolveUnderflow.New(a.ctx.posOfOrig(part.origID(n.ID())),
				"DAGSolve would underflow: %s receives %.4g nl, below its %.4g nl node minimum, when %s is filled to capacity",
				n.Name, worst.Volume, worst.Minimum, maxN.Name).
				Suggest("the volume manager will transform the DAG (replicating %s) or fall back on the LP solver", maxN.Name)
		}
		a.out = append(a.out, d)
	}
}
