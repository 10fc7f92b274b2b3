package bench

import (
	"fmt"
	"slices"
	"time"

	"aquavol/internal/assays"
	"aquavol/internal/core"
	"aquavol/internal/ilp"
	"aquavol/internal/lp"
)

// The solver-speed baseline: raw planning throughput and latency per
// shipped assay class, per solver. ROADMAP's "raw solver speed" item
// asks every optimization PR to show its speedup against a recorded
// trajectory; this experiment is the recorder. volbench -experiment
// solver prints the table and (with -json) writes BENCH_solver.json.

// SolverStat is one (assay, solver) cell of the baseline.
type SolverStat struct {
	Assay       string  `json:"assay"`
	Solver      string  `json:"solver"`
	Samples     int     `json:"samples"`
	PlansPerSec float64 `json:"plans_per_sec"`
	P50Micros   float64 `json:"p50_us"`
	P99Micros   float64 `json:"p99_us"`
}

// SolverReport is the JSON shape of BENCH_solver.json.
type SolverReport struct {
	Schema string       `json:"schema"`
	Stats  []SolverStat `json:"stats"`
}

// solverSampleBudget bounds each cell: stop at maxSamples or once
// budget wall time is spent, whichever first, with a minSamples floor
// so the percentiles mean something.
const (
	solverMinSamples = 20
	solverMaxSamples = 400
	solverBudget     = 1500 * time.Millisecond
)

// measure runs one solve repeatedly and summarizes its latency
// distribution.
func measure(assay, solver string, run func() error) (SolverStat, error) {
	sorted, total, err := sample(run, solverMinSamples, solverMaxSamples, solverBudget)
	if err != nil {
		return SolverStat{}, fmt.Errorf("%s/%s: %w", assay, solver, err)
	}
	micros := func(q float64) float64 { return float64(percentile(sorted, q).Nanoseconds()) / 1000 }
	return SolverStat{
		Assay:       assay,
		Solver:      solver,
		Samples:     len(sorted),
		PlansPerSec: float64(len(sorted)) / total.Seconds(),
		P50Micros:   micros(0.50),
		P99Micros:   micros(0.99),
	}, nil
}

// sample is the package's one latency sampler: it times run repeatedly
// until budget wall time is spent with at least minN samples, or maxN
// samples are in, and returns them sorted ascending with their total.
func sample(run func() error, minN, maxN int, budget time.Duration) ([]time.Duration, time.Duration, error) {
	var samples []time.Duration
	var total time.Duration
	for len(samples) < maxN {
		start := time.Now() //fluidvet:allow determinism wall-clock timing is the benchmark's measurement, reported not replayed
		err := run()
		d := time.Since(start) //fluidvet:allow determinism wall-clock timing is the benchmark's measurement, reported not replayed
		if err != nil {
			return nil, 0, err
		}
		samples = append(samples, d)
		total += d
		if total >= budget && len(samples) >= minN {
			break
		}
	}
	slices.Sort(samples)
	return samples, total, nil
}

// percentile returns the nearest-rank q-quantile of ascending samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	idx := int(float64(q*float64(len(sorted)))+0.5) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

// SolverBaseline measures every (assay, solver) cell of the baseline
// and returns the rendered table plus the JSON report.
func SolverBaseline() (*Table, *SolverReport, error) {
	c := cfg()
	unitCfg := core.Config{
		MaxCapacity: c.MaxCapacity / c.LeastCount,
		LeastCount:  1,
		OutputSkew:  c.OutputSkew,
	}
	cases := []struct {
		assay, solver string
		run           func() error
	}{
		{"fig2", "dagsolve", func() error {
			_, err := core.DAGSolve(assays.Fig2DAG(), c, nil)
			return err
		}},
		{"glucose", "dagsolve", func() error {
			_, err := core.DAGSolve(assays.GlucoseDAG(), c, nil)
			return err
		}},
		{"enzyme4", "dagsolve", func() error {
			_, err := core.DAGSolve(assays.EnzymeDAG(4), c, nil)
			return err
		}},
		{"enzyme10", "dagsolve", func() error {
			_, err := core.DAGSolve(assays.EnzymeDAG(10), c, nil)
			return err
		}},
		{"glucose", "lp", func() error {
			f, err := core.Formulate(assays.GlucoseDAG(), c, core.FormulateOptions{}, nil)
			if err != nil {
				return err
			}
			_, err = f.Prob.Solve(lp.Options{})
			return err
		}},
		{"enzyme4", "lp", func() error {
			f, err := core.Formulate(assays.EnzymeDAG(4), c, core.FormulateOptions{}, nil)
			if err != nil {
				return err
			}
			_, err = f.Prob.Solve(lp.Options{})
			return err
		}},
		{"glucose", "ilp", func() error {
			f, err := core.Formulate(assays.GlucoseDAG(), unitCfg, core.FormulateOptions{}, nil)
			if err != nil {
				return err
			}
			_, err = ilp.Solve(f.Prob, ilp.Options{MaxNodes: 20000})
			return err
		}},
		// The frozen CPU-speed reference (see canary.go): records the
		// recording host's speed so cross-recording comparisons can
		// separate host drift from solver changes.
		{"canary", "kernel", canaryKernel},
	}

	report := &SolverReport{Schema: "aquavol/bench-solver/v1"}
	t := &Table{
		ID:     "ESOLVER",
		Title:  "solver throughput/latency baseline (plans/sec, p50/p99 per assay)",
		Header: []string{"assay", "solver", "samples", "plans/sec", "p50", "p99"},
		Notes: []string{
			"solve time only: graph/formulation construction included, IO excluded",
			"recorded to BENCH_solver.json so later solver PRs can show their speedup",
			"canary/kernel is the frozen CPU-speed reference: it dates each recording's host speed so trajectory jumps can be told apart from solver changes",
		},
	}
	for _, cse := range cases {
		st, err := measure(cse.assay, cse.solver, cse.run)
		if err != nil {
			return nil, nil, err
		}
		report.Stats = append(report.Stats, st)
		t.Rows = append(t.Rows, []string{
			st.Assay, st.Solver, fmt.Sprintf("%d", st.Samples),
			fmt.Sprintf("%.0f", st.PlansPerSec),
			fmtDur(time.Duration(st.P50Micros * 1000)),
			fmtDur(time.Duration(st.P99Micros * 1000)),
		})
	}
	return t, report, nil
}
