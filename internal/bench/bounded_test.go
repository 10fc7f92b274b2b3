package bench

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"aquavol/internal/assays"
	"aquavol/internal/budget"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/golden"
)

// The E15 acceptance gate, solver half: cancelling every certified
// planning path at a sweep of charge boundaries must stop with the
// typed caller-cancelled cause after EXACTLY k work units, and a budget
// of exactly the reference work count must complete the solve.
func TestBoundedSolverMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("cancellation matrix sweeps dozens of full solves")
	}
	cases, err := boundedSolverCases()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 3 {
		t.Fatalf("expected dagsolve/lp/ilp cases, got %d", len(cases))
	}
	for _, c := range cases {
		if c.WorkUnits == 0 || c.CancelPoints == 0 {
			t.Errorf("%s/%s: empty sweep (W=%d points=%d)", c.Solver, c.Assay, c.WorkUnits, c.CancelPoints)
			continue
		}
		if c.CleanCancels != c.CancelPoints {
			t.Errorf("%s/%s: only %d/%d cancels carried the typed cause", c.Solver, c.Assay, c.CleanCancels, c.CancelPoints)
		}
		if c.ExactStops != c.CancelPoints {
			t.Errorf("%s/%s: only %d/%d stops landed at exactly k work units", c.Solver, c.Assay, c.ExactStops, c.CancelPoints)
		}
		if !c.CompletedAtBudget {
			t.Errorf("%s/%s: a budget of exactly %d work units did not complete", c.Solver, c.Assay, c.WorkUnits)
		}
	}
	golden.Check(t, "testdata/golden/bounded-solver.golden", boundedTable(cases, nil).String())
}

// The E15 acceptance gate, exec half (one assay for speed; volbench
// -experiment bounded sweeps all three): cancelling a journaled run at
// every instruction boundary must fail-stop the journal (typed cause,
// no outcome record) and the salvaged prefix must resume bit-identical
// to the uninterrupted run.
func TestBoundedExecTrichotomy(t *testing.T) {
	if testing.Short() {
		t.Skip("cancellation matrix runs dozens of cancel-resume pairs")
	}
	cas, err := robustnessAssays()
	if err != nil {
		t.Fatal(err)
	}
	cell, err := boundedExecCell(cas[0], "mild", 4, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if cell.WorkUnits == 0 || cell.CancelPoints == 0 {
		t.Fatalf("empty sweep: %+v", cell)
	}
	if cell.CleanCancels != cell.CancelPoints {
		t.Errorf("only %d/%d cancels fail-stopped with the typed cause and no outcome record",
			cell.CleanCancels, cell.CancelPoints)
	}
	if cell.Resumed != cell.CancelPoints {
		t.Errorf("only %d/%d salvaged journals resumed bit-identical", cell.Resumed, cell.CancelPoints)
	}
	if !cell.CompletedAtBudget {
		t.Errorf("a budget of exactly %d instructions did not complete the run", cell.WorkUnits)
	}
	golden.Check(t, "testdata/golden/bounded-exec-glucose.golden", boundedTable(nil, []BoundedExecCell{*cell}).String())
}

// The sweep always covers both ends without duplicates.
func TestBoundedSweep(t *testing.T) {
	for _, n := range []int64{1, 2, 23, 24, 25, 41, 1000, 16054} {
		points := boundedSweep(n, 24)
		seen := map[int64]bool{}
		for _, k := range points {
			if k < 1 || k > n {
				t.Errorf("n=%d: point %d out of range", n, k)
			}
			if seen[k] {
				t.Errorf("n=%d: duplicate point %d", n, k)
			}
			seen[k] = true
		}
		if !seen[1] || !seen[n] {
			t.Errorf("n=%d: sweep %v misses an endpoint", n, points)
		}
	}
}

// chargeLoop times the nil-path charge cost exactly as sited in the
// solvers: an inlined nil check inside a counted loop. noinline keeps
// the loop body (and the meter parameter) from being folded away.
//
//go:noinline
func chargeLoop(m *budget.Meter, n int) error {
	var err error
	for i := 0; i < n; i++ {
		if e := m.Charge(1); e != nil {
			err = e
		}
	}
	return err
}

// The budget plumbing must not slow the solvers down when no meter is
// armed (the nil fast path is a single inlined check per charge site):
// polling overhead stays within 3% of the recorded BENCH_solver.json
// solve times. Armed-meter polling cost is measured separately and
// recorded in BENCH_bounded.json.
//
// Wall-clock solver throughput on a shared host swings by tens of
// percent with noisy neighbors — far above any bound worth gating — so
// the check is analytic over stable measurements: (deterministic
// charges per solve, counted with a metering run) × (per-charge
// nil-path cost, timed in a tight ALU-bound loop that noisy neighbors
// barely touch) must be ≤ 3% of the recorded p50 solve time. A future
// change that fattens Charge's fast path or breaks its inlining fails
// this on any host; host-speed drift cannot.
func TestSolverThroughputNoRegressionVsRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates the per-charge cost; the 3% bound is against an uninstrumented build")
	}
	blob, err := os.ReadFile("../../BENCH_solver.json")
	if err != nil {
		t.Skipf("no recorded baseline: %v", err)
	}
	var rec SolverReport
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatal(err)
	}
	recordedP50 := func(assay, solver string) float64 {
		for _, s := range rec.Stats {
			if s.Assay == assay && s.Solver == solver {
				return s.P50Micros
			}
		}
		return 0
	}

	// Per-charge nil-path cost: best of three over 16M charges each.
	const loopIters = 1 << 24
	perChargeMicros := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		start := time.Now() //fluidvet:allow determinism wall-clock timing is the benchmark's measurement, reported not replayed
		if err := chargeLoop(nil, loopIters); err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start) //fluidvet:allow determinism wall-clock timing is the benchmark's measurement, reported not replayed
		if per := float64(elapsed.Microseconds()) / loopIters; per < perChargeMicros {
			perChargeMicros = per
		}
	}

	c := cfg()
	for _, cse := range []struct {
		assay string
		graph func() *dag.Graph
	}{
		{"glucose", assays.GlucoseDAG},
		{"enzyme4", func() *dag.Graph { return assays.EnzymeDAG(4) }},
	} {
		p50 := recordedP50(cse.assay, "dagsolve")
		if p50 == 0 {
			t.Fatalf("no recorded dagsolve/%s cell in BENCH_solver.json", cse.assay)
		}
		// Deterministic charge count: a counting meter observes every
		// work unit the solve charges.
		mc := c
		mc.Budget = budget.New(0)
		if _, err := core.DAGSolve(cse.graph(), mc, nil); err != nil {
			t.Fatal(err)
		}
		charges := mc.Budget.Used()
		overhead := float64(charges) * perChargeMicros / p50
		t.Logf("dagsolve/%s: %d charges x %.4f µs = %.3f µs polling vs %.1f µs recorded p50 (%.2f%%)",
			cse.assay, charges, perChargeMicros, float64(charges)*perChargeMicros, p50, 100*overhead)
		if overhead > 0.03 {
			t.Errorf("dagsolve/%s: nil-path polling costs %.1f%% of the recorded p50 solve time, budget is 3%%",
				cse.assay, 100*overhead)
		}
	}
}
