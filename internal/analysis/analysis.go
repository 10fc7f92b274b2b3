// Package analysis is the compile-time volume-safety analyzer (fluidlint):
// a multi-pass static analysis over the elaborated assay (elab IR +
// dag.Graph) that diagnoses volume errors — underflow below the least
// count, overflow past the maximum capacity, skew beyond MaxSkew =
// maxCap/leastCount, statically wasted fluid, and unrepresentable ratios —
// before any LP/ILP solver runs, with source positions and concrete fix
// suggestions.
//
// The passes, in pipeline order:
//
//   - volume-interval analysis (interval.go): abstract interpretation
//     propagating [min,max] volume intervals through the DAG; predicts
//     definite underflow/overflow for a given core.Config without invoking
//     the solvers, and DAGSolve-specific underflow by running core's own
//     Dispense;
//   - skew/feasibility analysis (skew.go): per-mix effective ratio against
//     Config.MaxSkew(), with core's cascade depth as the suggestion;
//   - dead-fluid/waste analysis (waste.go): fluids produced but never
//     consumed, inputs statically discarded beyond a threshold, unused
//     input declarations;
//   - divisibility lint (divis.go): mix ratios that cannot be realized as
//     integer multiples of the least count within one reservoir.
//
// Severity policy: a finding is an Error only when no automatic transform
// of the volume-management hierarchy (cascading, replication, the LP
// fallback) can repair it; conditions the compiler fixes on its own are
// Warnings carrying the transform as the suggestion, and purely advisory
// notes are Info.
package analysis

import (
	"fmt"

	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/diag"
	"aquavol/internal/lang/elab"
	"aquavol/internal/lang/token"
)

// Diagnostic codes, stable across releases, minted through the
// internal/diag registry so each is unique, carries a default
// severity, and is documented. See README.md for the code → meaning →
// paper-section reference table. Sites that need a context-dependent
// severity (VOL001 downgrades to Warning when cascading repairs the
// underflow) override it with NewWith.
var (
	// CodeUnderflow is a definite least-count underflow: some dispense
	// cannot reach Config.LeastCount under any volume assignment (§3.2
	// constraint class 1 vs class 2/4).
	CodeUnderflow = diag.MustRegister("VOL001", diag.Error,
		"definite least-count underflow", "README.md#static-analysis-fluidlint")
	// CodeOverflow is a definite capacity overflow: some node needs more
	// than Config.MaxCapacity under any volume assignment.
	CodeOverflow = diag.MustRegister("VOL002", diag.Error,
		"definite capacity overflow", "README.md#static-analysis-fluidlint")
	// CodeDAGSolveUnderflow predicts that DAGSolve's proportional
	// assignment (§3.3) underflows, engaging the Fig. 6 hierarchy.
	CodeDAGSolveUnderflow = diag.MustRegister("VOL003", diag.Warning,
		"predicted DAGSolve underflow", "README.md#static-analysis-fluidlint")
	// CodeExtremeRatio is a mix ratio beyond MaxSkew that cascading
	// (§3.4.1) repairs automatically.
	CodeExtremeRatio = diag.MustRegister("VOL010", diag.Warning,
		"mix ratio beyond MaxSkew, repairable by cascading", "README.md#static-analysis-fluidlint")
	// CodeUncascadable is a mix ratio beyond MaxSkew that cascading
	// cannot repair (NOEXCESS fluids, >2 parts, or no feasible depth).
	CodeUncascadable = diag.MustRegister("VOL011", diag.Error,
		"mix ratio beyond MaxSkew that cascading cannot repair", "README.md#static-analysis-fluidlint")
	// CodeCascadeExpected notes a ratio above the cascade trigger: legal,
	// but the volume manager will likely cascade it.
	CodeCascadeExpected = diag.MustRegister("VOL012", diag.Info,
		"ratio above the cascade trigger", "README.md#static-analysis-fluidlint")
	// CodeDeadFluid is a produced fluid that is never consumed.
	CodeDeadFluid = diag.MustRegister("VOL020", diag.Warning,
		"produced fluid is never consumed", "README.md#static-analysis-fluidlint")
	// CodeStaticWaste is an input a large fraction of which is statically
	// known to be discarded.
	CodeStaticWaste = diag.MustRegister("VOL021", diag.Warning,
		"input is statically discarded beyond the waste threshold", "README.md#static-analysis-fluidlint")
	// CodeUnusedFluid is a fluid declaration that is never referenced.
	CodeUnusedFluid = diag.MustRegister("VOL022", diag.Warning,
		"fluid declaration is never referenced", "README.md#static-analysis-fluidlint")
	// CodeInexactRatio is a mix ratio that cannot be dispensed exactly as
	// integer multiples of the least count within one reservoir.
	CodeInexactRatio = diag.MustRegister("VOL030", diag.Warning,
		"mix ratio is not realizable in least-count multiples", "README.md#static-analysis-fluidlint")
)

// Options tunes the analyzer.
type Options struct {
	// DiscardThreshold is the statically-discarded fraction of an input
	// above which the waste pass warns. Zero selects 0.25.
	DiscardThreshold float64
}

func (o Options) discardThreshold() float64 {
	if o.DiscardThreshold > 0 {
		return o.DiscardThreshold
	}
	return 0.25
}

// Context is the shared state passes analyze. Passes observe it and
// report findings; they never mutate the graph or program.
type Context struct {
	// Prog optionally supplies source-level information (positions,
	// declarations). Nil for analyses over programmatically-built DAGs.
	Prog *elab.Program
	// Graph is the assay DAG under analysis (pre-transform: as elaborated,
	// before cascading/replication/partitioning).
	Graph *dag.Graph
	// Cfg is the hardware configuration analyzed against.
	Cfg  core.Config
	Opts Options

	parts []analysisPart
}

// analysisPart is one solve-time region of the graph: the whole graph when
// all volumes are static, or one partition of §3.5 otherwise.
type analysisPart struct {
	g *dag.Graph
	// orig maps part-local node ids to ids in Context.Graph; identity (nil)
	// for the single-part case.
	orig map[int]int
}

func (p *analysisPart) origID(localID int) int {
	if p.orig == nil {
		return localID
	}
	if id, ok := p.orig[localID]; ok {
		return id
	}
	return -1 // synthetic node (ConstrainedInput)
}

// PosOf resolves a node of Context.Graph to its source position: the
// elaborated op it came from, or the fluid declaration for input nodes
// (which no op creates); the zero Pos when unavailable.
func (ctx *Context) PosOf(n *dag.Node) token.Pos {
	if ctx.Prog == nil || n == nil {
		return token.Pos{}
	}
	if idx, ok := n.Ref.(int); ok && idx >= 0 && idx < len(ctx.Prog.Ops) {
		return ctx.Prog.Ops[idx].Pos
	}
	if n.Kind == dag.Input {
		for _, d := range ctx.Prog.FluidDecls {
			if d.Name == n.Name {
				return d.Pos
			}
		}
	}
	return token.Pos{}
}

// posOfOrig is PosOf by original-graph node id.
func (ctx *Context) posOfOrig(id int) token.Pos {
	if id < 0 {
		return token.Pos{}
	}
	return ctx.PosOf(ctx.Graph.Node(id))
}

// Parts returns the solve-time regions of the graph, partitioning at
// unknown-volume nodes exactly as the staged volume manager does (§3.5).
// Per-part analyses (DAGSolve prediction, waste shares) use these, because
// each part is dispensed at its own scale.
func (ctx *Context) Parts() []analysisPart {
	if ctx.parts != nil {
		return ctx.parts
	}
	if !ctx.Graph.NeedsPartition() {
		ctx.parts = []analysisPart{{g: ctx.Graph}}
		return ctx.parts
	}
	res, err := dag.Partition(ctx.Graph)
	if err != nil {
		// The driver validated the graph already; an unpartitionable graph
		// simply gets no per-part analyses.
		ctx.parts = []analysisPart{}
		return ctx.parts
	}
	for i, pg := range res.Parts {
		ctx.parts = append(ctx.parts, analysisPart{g: pg, orig: res.OrigOf[i]})
	}
	return ctx.parts
}

// Analyze lints an elaborated program against cfg, running every pass and
// returning the aggregated, position-sorted findings. It returns a non-nil
// error only when the inputs themselves are unusable (invalid config or
// DAG) — an assay full of volume errors analyzes fine and reports them.
//
// Analyze is certified parallel-safe: concurrent lints are race-free.
//
//fluidvet:parallelsafe
func Analyze(prog *elab.Program, cfg core.Config, opts Options) (diag.List, error) {
	return run(&Context{Prog: prog, Graph: prog.Graph, Cfg: cfg, Opts: opts})
}

// AnalyzeGraph lints a bare assay DAG (no source positions).
func AnalyzeGraph(g *dag.Graph, cfg core.Config, opts Options) (diag.List, error) {
	return run(&Context{Graph: g, Cfg: cfg, Opts: opts})
}

func run(ctx *Context) (diag.List, error) {
	if err := ctx.Cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx.Graph == nil {
		return nil, fmt.Errorf("analysis: nil graph")
	}
	if err := ctx.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("analysis: invalid DAG: %w", err)
	}
	// The passes run in pipeline order, polling cfg.Budget at each pass
	// boundary: a tripped meter stops the lint with its typed cause.
	if err := ctx.Cfg.Budget.Err(); err != nil {
		return nil, err
	}
	out := intervalPass(ctx)
	if err := ctx.Cfg.Budget.Err(); err != nil {
		return nil, err
	}
	out = append(out, skewPass(ctx)...)
	if err := ctx.Cfg.Budget.Err(); err != nil {
		return nil, err
	}
	out = append(out, wastePass(ctx)...)
	if err := ctx.Cfg.Budget.Err(); err != nil {
		return nil, err
	}
	out = append(out, divisibilityPass(ctx)...)
	out.Sort()
	return out, nil
}
