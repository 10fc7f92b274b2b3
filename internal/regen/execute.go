package regen

import (
	"math"

	"aquavol/internal/core"
	"aquavol/internal/dag"
)

// Strategy selects how a depleted fluid is regenerated.
type Strategy int

const (
	// Lazy re-executes only the depleted producer, recursively drawing
	// its operands (which may trigger further regenerations on demand).
	Lazy Strategy = iota
	// EagerSlice re-executes the fluid's entire backward slice, as
	// BioStream's regeneration does: every producing ancestor runs again
	// whether or not it was empty. Fewer triggers, more re-executed
	// operations per trigger.
	EagerSlice
)

func (s Strategy) String() string {
	if s == EagerSlice {
		return "eager-slice"
	}
	return "lazy"
}

// unknownYield is the production fraction assumed for unknown-volume
// nodes.
const unknownYield = 0.4

// maxDepth bounds the regeneration cascade's recursion; a deeper
// cascade (pathological OutFrac chains) is cut off and reported as
// Truncated.
const maxDepth = 64

// ExecOptions tunes Execute.
type ExecOptions struct {
	// Strategy selects lazy or eager-slice regeneration.
	Strategy Strategy
	// OpSeconds estimates the fluidic time per wet operation, for the
	// overhead report. 0 selects 10 s (mix/incubate scale).
	OpSeconds float64
	// MaxRegens aborts pathological runs. 0 selects 1 << 20.
	MaxRegens int
}

func (o ExecOptions) withDefaults() ExecOptions {
	if o.OpSeconds == 0 {
		o.OpSeconds = 10
	}
	if o.MaxRegens == 0 {
		o.MaxRegens = 1 << 20
	}
	return o
}

// ExecReport quantifies a regeneration-repaired execution.
type ExecReport struct {
	// Triggers counts shortfall events (a use finding its fluid
	// depleted).
	Triggers int
	// ReExecutedOps counts wet operations re-run to repair shortfalls.
	ReExecutedOps int
	// BaselineOps counts the assay's own wet operations.
	BaselineOps int
	// ExtraFluidicSeconds estimates the fluidic time spent on
	// regeneration (ReExecutedOps × OpSeconds).
	ExtraFluidicSeconds float64
	// OverheadFraction is ReExecutedOps / BaselineOps.
	OverheadFraction float64
	// Completed is false if MaxRegens aborted the run.
	Completed bool
	// Truncated reports that the regeneration cascade exceeded the
	// recursion-depth bound and the exact accounting was cut off:
	// Triggers is then a lower bound, not an exact count.
	Truncated bool
	// PerFluid breaks triggers down by depleted fluid name.
	PerFluid map[string]int
}

// Execute simulates running g with NO volume management — every operation
// fills its unit to capacity — repairing each shortfall by regeneration
// under the chosen strategy, and reports the overhead. This realizes the
// paper's argument for proactive volume management: regeneration
// re-executes instructions on the fluidic datapath, which is orders of
// magnitude slower than the electronic control (§1).
func Execute(g *dag.Graph, cfg core.Config, opts ExecOptions) *ExecReport {
	opt := opts.withDefaults()
	rep := &ExecReport{Completed: true, PerFluid: map[string]int{}}
	avail := map[*dag.Node]float64{}
	for _, n := range g.Nodes() {
		if n != nil && n.Kind == dag.Input {
			avail[n] = cfg.MaxCapacity
		}
	}
	production := func(n *dag.Node) float64 {
		if n.Kind == dag.Input || n.Kind == dag.ConstrainedInput {
			return cfg.MaxCapacity
		}
		out := n.OutFrac
		if n.Unknown {
			out = unknownYield
		}
		return cfg.MaxCapacity * out * (1 - n.Discard)
	}
	aborted := false

	// reExecute runs one producing op again (reload for inputs).
	var draw func(p *dag.Node, amt float64, depth int)
	reExecute := func(p *dag.Node, depth int) {
		rep.ReExecutedOps++
		if p.Kind == dag.Input || p.Kind == dag.ConstrainedInput {
			avail[p] = cfg.MaxCapacity
			return
		}
		for _, e := range p.In() {
			draw(e.From, e.Frac*cfg.MaxCapacity, depth+1)
		}
		avail[p] = math.Min(avail[p]+production(p), cfg.MaxCapacity)
	}
	regenerate := func(p *dag.Node, depth int) {
		rep.Triggers++
		rep.PerFluid[p.Name]++
		if rep.Triggers > opt.MaxRegens {
			aborted = true
			return
		}
		switch opt.Strategy {
		case Lazy:
			reExecute(p, depth)
		case EagerSlice:
			// Re-run the whole backward slice once; repeat the terminal
			// producer until the shortfall is covered.
			for _, s := range BackwardSlice(g, p) {
				reExecute(s, depth)
			}
		}
	}
	draw = func(p *dag.Node, amt float64, depth int) {
		if aborted {
			return
		}
		if depth > maxDepth {
			rep.Truncated = true
			return
		}
		for avail[p]+1e-9 < amt && !aborted {
			regenerate(p, depth)
		}
		avail[p] -= amt
	}

	for _, c := range g.TopoOrder() {
		if c.Kind == dag.Input || c.Kind == dag.ConstrainedInput || c.Kind == dag.Excess {
			continue
		}
		rep.BaselineOps++
		for _, e := range c.In() {
			draw(e.From, e.Frac*cfg.MaxCapacity, 0)
		}
		avail[c] = production(c)
		if aborted {
			break
		}
	}
	rep.Completed = !aborted
	rep.ExtraFluidicSeconds = float64(rep.ReExecutedOps) * opt.OpSeconds
	if rep.BaselineOps > 0 {
		rep.OverheadFraction = float64(rep.ReExecutedOps) / float64(rep.BaselineOps)
	}
	return rep
}
