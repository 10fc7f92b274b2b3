// Benchmarks regenerating the paper's evaluation (one per table/figure;
// see DESIGN.md's experiment index). Run with:
//
//	go test -bench=. -benchmem
//
// The simplex keeps a row sparse until a pivot needs it whole, so even
// Enzyme10's LP (9,096 rows × 14,195 columns, which a dense tableau would
// hold in 1.03 GB) runs here in milliseconds.
package aquavol

import (
	"testing"

	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/certify"
	"aquavol/internal/codegen"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/ilp"
	"aquavol/internal/lang"
	"aquavol/internal/lp"
	"aquavol/internal/regen"
)

func cfg() core.Config { return core.DefaultConfig() }

func benchDAGSolve(b *testing.B, g *dag.Graph) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan, err := core.DAGSolve(g, cfg(), nil)
		if err != nil {
			b.Fatal(err)
		}
		_ = plan
	}
}

func benchLP(b *testing.B, g *dag.Graph, opts core.FormulateOptions) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := core.Formulate(g, cfg(), opts, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Solve(lp.Options{}); err != nil && err != core.ErrLPInfeasible {
			b.Fatal(err)
		}
	}
}

// E1 (Fig. 5): the worked example.
func BenchmarkDAGSolveFig2(b *testing.B) { benchDAGSolve(b, assays.Fig2DAG()) }

// E2/E6 (Fig. 12, Table 2 row 1).
func BenchmarkDAGSolveGlucose(b *testing.B) { benchDAGSolve(b, assays.GlucoseDAG()) }
func BenchmarkLPGlucose(b *testing.B)       { benchLP(b, assays.GlucoseDAG(), core.FormulateOptions{}) }

// E3/E6 (Fig. 13, Table 2 row 2): partitioned glycomics solve, total over
// all four parts as the paper reports.
func BenchmarkDAGSolveGlycomics(b *testing.B) {
	g := assays.GlycomicsDAG()
	c := cfg()
	avail := func(ci *dag.Node) (float64, bool) {
		if ci.SourceIsInput {
			return ci.Share * c.MaxCapacity, true
		}
		return ci.Share * 40, true
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp, err := core.NewStagedPlan(g, c)
		if err != nil {
			b.Fatal(err)
		}
		for p := 0; p < sp.NumParts(); p++ {
			if _, err := core.Dispense(sp.Vnorms[p], c, avail); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E4/E6 (Fig. 14, Table 2 row 3).
func BenchmarkDAGSolveEnzyme(b *testing.B) { benchDAGSolve(b, assays.EnzymeDAG(4)) }
func BenchmarkLPEnzyme(b *testing.B)       { benchLP(b, assays.EnzymeDAG(4), core.FormulateOptions{}) }

// E6 (Table 2 row 4): Enzyme10. The LP proves infeasibility in 44
// phase-1 pivots.
func BenchmarkDAGSolveEnzyme10(b *testing.B) { benchDAGSolve(b, assays.EnzymeDAG(10)) }
func BenchmarkLPEnzyme10(b *testing.B)       { benchLP(b, assays.EnzymeDAG(10), core.FormulateOptions{}) }

// E6b: the scaling sweep's largest interactive LP point.
func BenchmarkLPEnzyme5(b *testing.B) { benchLP(b, assays.EnzymeDAG(5), core.FormulateOptions{}) }

// E7 (§4.3 ablation): LP with DAGSolve's artificial constraints added.
func BenchmarkLPGlucoseExtraConstraints(b *testing.B) {
	benchLP(b, assays.GlucoseDAG(), core.FormulateOptions{FlowConservation: true, EqualOutputs: true})
}
func BenchmarkLPEnzymeExtraConstraints(b *testing.B) {
	benchLP(b, assays.EnzymeDAG(4), core.FormulateOptions{FlowConservation: true, EqualOutputs: true})
}

// E8 (§4.3): ILP on glucose (tractable; enzyme exhausts any sane budget,
// shown in volbench rather than as a benchmark).
func BenchmarkILPGlucose(b *testing.B) {
	c := cfg()
	unitCfg := core.Config{
		MaxCapacity: c.MaxCapacity / c.LeastCount,
		LeastCount:  1,
		OutputSkew:  c.OutputSkew,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := core.Formulate(assays.GlucoseDAG(), unitCfg, core.FormulateOptions{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ilp.Solve(f.Prob, ilp.Options{MaxNodes: 20000}); err != nil {
			b.Fatal(err)
		}
	}
}

// E9 (§4.3): regeneration counting without volume management.
func BenchmarkRegenGlucose(b *testing.B) {
	g := assays.GlucoseDAG()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		regen.Execute(g, cfg(), regen.ExecOptions{})
	}
}

func BenchmarkRegenEnzyme10(b *testing.B) {
	g := assays.EnzymeDAG(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		regen.Execute(g, cfg(), regen.ExecOptions{})
	}
}

// E5 (§4.2): IVol rounding.
func BenchmarkRoundGlucose(b *testing.B) {
	plan, err := core.DAGSolve(assays.GlucoseDAG(), cfg(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.Round(plan, cfg())
	}
}

// Whole-pipeline benchmarks: compile, manage, generate, simulate.
func BenchmarkCompileGlucose(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lang.Compile(assays.GlucoseSource); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileEnzyme10(b *testing.B) {
	src := assays.EnzymeSource(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lang.Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkManageEnzyme(b *testing.B) {
	g := assays.EnzymeDAG(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Manage(g, cfg(), core.ManageOptions{SkipLP: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// The plan op: the Fig. 6 hierarchy on the compiled Enzyme assay,
// DAGSolve and its LP fallbacks (4 solves at n=4, 7 at n=5) through
// certification of the final plan. The LP benchmarks above time one
// solve on the hand-built DAG instead.
func benchManageEnzyme(b *testing.B, n int) {
	b.Helper()
	src := assays.EnzymeSource(n)
	c := cfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ep, err := lang.Compile(src)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Manage(ep.Graph, c, core.ManageOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := certify.CheckPlan(res.Plan, c, core.StaticAvailability(c)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkManageEnzyme4(b *testing.B) { benchManageEnzyme(b, 4) }
func BenchmarkManageEnzyme5(b *testing.B) { benchManageEnzyme(b, 5) }

func BenchmarkSimulateGlucose(b *testing.B) {
	ep, err := lang.Compile(assays.GlucoseSource)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := core.DAGSolve(ep.Graph, cfg(), nil)
	if err != nil {
		b.Fatal(err)
	}
	cg, err := codegen.Generate(ep, ep.Graph, codegen.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := aquacore.New(aquacore.Config{}, ep.Graph, aquacore.PlanSource{Plan: plan})
		if _, err := m.Run(cg.Prog); err != nil {
			b.Fatal(err)
		}
	}
}
