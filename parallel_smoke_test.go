// Concurrency smoke tests for the //fluidvet:parallelsafe certificates:
// every certified entry point is hammered by N goroutines over the
// shipped assays under `go test -race` (ci.sh runs the race tier), so
// the static certification is backed by a dynamic witness. Results are
// compared against a sequential baseline — the solvers are
// deterministic, so any divergence under concurrency is itself a
// finding, not just a race-detector report.
package aquavol

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"aquavol/internal/ais"
	"aquavol/internal/aisverify"
	"aquavol/internal/analysis"
	"aquavol/internal/assays"
	"aquavol/internal/certify"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/fluidvet"
	"aquavol/internal/ilp"
	"aquavol/internal/lang"
	"aquavol/internal/lp"
)

// smokeGoroutines is N: enough to give the race detector interleavings
// to chew on without slowing the tier-1 suite.
const smokeGoroutines = 16

// hammer runs fn on n concurrent goroutines and fails the test on the
// first error any of them returns.
func hammer(t *testing.T, n int, fn func(worker int) error) {
	t.Helper()
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}

// smokeExercises maps each certified entry point to its exercise;
// TestParallelSmoke walks fluidvet.CertifiedEntryPoints, so a newly
// certified function without a smoke exercise fails the suite.
var smokeExercises = map[string]func(t *testing.T){
	"aquavol/internal/core.DAGSolve":         smokeDAGSolve,
	"aquavol/internal/core.SolveResidual":    smokeSolveResidual,
	"(*aquavol/internal/lp.Problem).Solve":   smokeLPSolve,
	"aquavol/internal/ilp.Solve":             smokeILPSolve,
	"(*aquavol/internal/dag.Graph).Validate": smokeValidate,
	"aquavol/internal/analysis.Analyze":      smokeAnalyze,
	"aquavol/internal/aisverify.Verify":      smokeVerify,
	"aquavol/internal/certify.CheckPlan":     smokeCertifyPlan,
	"aquavol/internal/certify.CheckResidual": smokeCertifyResidual,
}

func TestParallelSmoke(t *testing.T) {
	for _, name := range fluidvet.CertifiedEntryPoints {
		fn, ok := smokeExercises[name]
		if !ok {
			t.Errorf("certified entry point %s has no concurrency smoke exercise", name)
			continue
		}
		t.Run(name, fn)
	}
	if len(smokeExercises) != len(fluidvet.CertifiedEntryPoints) {
		t.Errorf("smoke exercises cover %d entry points, certificate lists %d",
			len(smokeExercises), len(fluidvet.CertifiedEntryPoints))
	}
}

// smokeDAGSolve solves the shipped assay DAGs from N goroutines sharing
// the graphs, comparing every plan against a sequential baseline.
func smokeDAGSolve(t *testing.T) {
	graphs := map[string]*dag.Graph{
		"fig2":    assays.Fig2DAG(),
		"glucose": assays.GlucoseDAG(),
		"enzyme4": assays.EnzymeDAG(4),
	}
	baseline := map[string][]float64{}
	for name, g := range graphs {
		plan, err := core.DAGSolve(g, cfg(), nil)
		if err != nil {
			t.Fatalf("%s baseline: %v", name, err)
		}
		// enzyme4 underflows by design (the paper's Fig. 6 hierarchy
		// exists to repair it); the smoke only needs the raw solve to be
		// deterministic under concurrency.
		if name != "enzyme4" && !plan.Feasible() {
			t.Fatalf("%s baseline infeasible: %v", name, plan.Underflows)
		}
		baseline[name] = plan.EdgeVolume
	}
	hammer(t, smokeGoroutines, func(worker int) error {
		for name, g := range graphs {
			plan, err := core.DAGSolve(g, cfg(), nil)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if !reflect.DeepEqual(plan.EdgeVolume, baseline[name]) {
				return fmt.Errorf("%s: concurrent plan diverges from baseline", name)
			}
		}
		return nil
	})
}

// smokeSolveResidual replans a half-executed assay remainder from N
// goroutines sharing the residual and a race-free live callback.
func smokeSolveResidual(t *testing.T) {
	g := dag.New()
	in1 := g.AddInput("in1")
	in2 := g.AddInput("in2")
	m := g.AddMix("M", dag.Part{Source: in1, Ratio: 1}, dag.Part{Source: in2, Ratio: 3})
	h := g.AddUnary(dag.Incubate, "H", m)
	g.AddUnary(dag.Sense, "end", h)
	done := map[int]bool{in1.ID(): true, in2.ID(): true, m.ID(): true}
	r, err := dag.ExtractResidual(g, func(n *dag.Node) bool { return done[n.ID()] })
	if err != nil {
		t.Fatal(err)
	}
	live := func(sourceID int, port string) (float64, bool) { return 37.5, true }

	base, err := core.SolveResidual(r, cfg(), live)
	if err != nil {
		t.Fatal(err)
	}
	hammer(t, smokeGoroutines, func(worker int) error {
		rp, err := core.SolveResidual(r, cfg(), live)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(rp.Plan.EdgeVolume, base.Plan.EdgeVolume) {
			return fmt.Errorf("concurrent residual plan diverges from baseline")
		}
		return nil
	})
}

// smokeLPSolve runs the simplex on distinct Problems (the certificate's
// contract: the receiver is mutable state) built from shared graphs.
// Workers alternate between glucose (optimal, so duals and reduced
// costs are compared) and the Enzyme LP (proven infeasible after 156
// phase-1 pivots on a much larger tableau), so pooled tableau storage
// passes between solves of different sizes. Every solve must match its
// sequential baseline bit for bit.
func smokeLPSolve(t *testing.T) {
	graphs := []*dag.Graph{assays.GlucoseDAG(), assays.EnzymeDAG(4)}
	solve := func(g *dag.Graph) (*lp.Solution, error) {
		f, err := core.Formulate(g, cfg(), core.FormulateOptions{}, nil)
		if err != nil {
			return nil, err
		}
		return f.Prob.Solve(lp.Options{})
	}
	base := make([]*lp.Solution, len(graphs))
	for i, g := range graphs {
		sol, err := solve(g)
		if err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
		base[i] = sol
	}
	if base[0].Status != lp.Optimal {
		t.Fatalf("glucose baseline LP status %v", base[0].Status)
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	hammer(t, smokeGoroutines, func(worker int) error {
		i := worker % len(graphs)
		sol, err := solve(graphs[i])
		if err != nil {
			return err
		}
		want := base[i]
		if sol.Status != want.Status || sol.Iterations != want.Iterations ||
			!reflect.DeepEqual(bits(sol.X), bits(want.X)) ||
			!reflect.DeepEqual(bits(sol.Y), bits(want.Y)) ||
			!reflect.DeepEqual(bits(sol.ReducedCost), bits(want.ReducedCost)) {
			return fmt.Errorf("concurrent LP solution %d diverges from baseline", i)
		}
		return nil
	})
}

// smokeILPSolve runs branch and bound on distinct Problems (ilp.Solve
// tightens bounds on its receiver during the search).
func smokeILPSolve(t *testing.T) {
	c := cfg()
	unitCfg := core.Config{
		MaxCapacity: c.MaxCapacity / c.LeastCount,
		LeastCount:  1,
		OutputSkew:  c.OutputSkew,
	}
	solve := func() (*ilp.Result, error) {
		f, err := core.Formulate(assays.GlucoseDAG(), unitCfg, core.FormulateOptions{}, nil)
		if err != nil {
			return nil, err
		}
		return ilp.Solve(f.Prob, ilp.Options{MaxNodes: 20000})
	}
	base, err := solve()
	if err != nil {
		t.Fatal(err)
	}
	hammer(t, smokeGoroutines, func(worker int) error {
		res, err := solve()
		if err != nil {
			return err
		}
		if res.Status != base.Status || res.Nodes != base.Nodes {
			return fmt.Errorf("concurrent ILP search diverges: %v/%d nodes vs %v/%d",
				res.Status, res.Nodes, base.Status, base.Nodes)
		}
		return nil
	})
}

// smokeValidate validates one shared, unmutated graph from N goroutines.
func smokeValidate(t *testing.T) {
	g := assays.GlycomicsDAG()
	hammer(t, smokeGoroutines, func(worker int) error {
		return g.Validate()
	})
}

// smokeAnalyze lints one shared elaborated program from N goroutines.
func smokeAnalyze(t *testing.T) {
	prog, err := lang.Compile(assays.GlucoseSource)
	if err != nil {
		t.Fatal(err)
	}
	base, err := analysis.Analyze(prog, cfg(), analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hammer(t, smokeGoroutines, func(worker int) error {
		got, err := analysis.Analyze(prog, cfg(), analysis.Options{})
		if err != nil {
			return err
		}
		if len(got) != len(base) {
			return fmt.Errorf("concurrent lint found %d findings, baseline %d", len(got), len(base))
		}
		return nil
	})
}

// smokeCertifyPlan certifies one shared solved plan from N goroutines
// (the certificate's contract: the checker only reads the plan, graph,
// and config it is handed).
func smokeCertifyPlan(t *testing.T) {
	g := assays.GlucoseDAG()
	plan, err := core.DAGSolve(g, cfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible() {
		t.Fatalf("baseline plan infeasible: %v", plan.Underflows)
	}
	hammer(t, smokeGoroutines, func(worker int) error {
		return certify.CheckPlan(plan, cfg(), nil)
	})
}

// smokeCertifyResidual certifies one shared residual replan from N
// goroutines sharing the residual and a race-free live callback.
func smokeCertifyResidual(t *testing.T) {
	g := dag.New()
	in1 := g.AddInput("in1")
	in2 := g.AddInput("in2")
	m := g.AddMix("M", dag.Part{Source: in1, Ratio: 1}, dag.Part{Source: in2, Ratio: 3})
	h := g.AddUnary(dag.Incubate, "H", m)
	g.AddUnary(dag.Sense, "end", h)
	done := map[int]bool{in1.ID(): true, in2.ID(): true, m.ID(): true}
	r, err := dag.ExtractResidual(g, func(n *dag.Node) bool { return done[n.ID()] })
	if err != nil {
		t.Fatal(err)
	}
	live := func(sourceID int, port string) (float64, bool) { return 37.5, true }
	rp, err := core.SolveResidual(r, cfg(), live)
	if err != nil {
		t.Fatal(err)
	}
	hammer(t, smokeGoroutines, func(worker int) error {
		return certify.CheckResidual(rp, cfg(), live)
	})
}

// smokeVerify verifies one shared assembled AIS program from N
// goroutines. The witness program carries a deliberate least-count
// violation so the finding set is non-empty and comparable.
func smokeVerify(t *testing.T) {
	prog, err := ais.Assemble("input s1, ip1\nmove-abs mixer1, s1, 0.5\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	base := aisverify.Verify(prog, aisverify.Options{})
	if len(base) == 0 {
		t.Fatal("witness program produced no baseline findings")
	}
	hammer(t, smokeGoroutines, func(worker int) error {
		got := aisverify.Verify(prog, aisverify.Options{})
		if len(got) != len(base) {
			return fmt.Errorf("concurrent verify found %d findings, baseline %d", len(got), len(base))
		}
		return nil
	})
}
