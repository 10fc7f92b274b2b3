// Command volbench regenerates the paper's evaluation tables and figures
// (§4) on this reproduction. See DESIGN.md for the experiment index.
//
// Usage:
//
//	volbench [-experiment all|fig5|glucose|glycomics|enzyme|rounding|table2|scaling|lpablation|ilp|regen|ablations|cascade-depth|replica-sweep|regen-strategy|output-skew|robustness|margin-sweep|durability|replan|solver|storage-chaos|bounded|certify]
//	         [-full] [-sweep N] [-seeds N] [-json FILE] [-ilp-nodes N] [-ilp-time D]
//
// -experiment solver measures the raw planning throughput/latency
// baseline (plans/sec, p50/p99 per shipped assay and solver); with
// -json it also writes the machine-readable report (BENCH_solver.json
// at the repository root is the recorded trajectory).
//
// -experiment storage-chaos runs the E14 storage-fault matrix: one
// injected fault at every journal I/O site, asserting the trichotomy
// (clean / refused journal / bit-identical resume). Its table is
// deterministic; -json adds the journaling-overhead timing.
//
// -experiment bounded runs the E15 cancel-at-every-boundary matrix for
// the work-budget layer: every certified solver path and every shipped
// assay is cancelled at a sweep of charge/instruction boundaries,
// asserting the trichotomy (completed / clean typed cancel within
// bounded work / salvaged journal resumes bit-identically). The table
// is deterministic; -json adds cancellation-latency percentiles and the
// budget-polling overhead (BENCH_bounded.json at the repository root is
// the recorded trajectory).
//
// -experiment certify runs the E16 proof-carrying-plans mutation
// matrix: every single-field perturbation of every shipped plan (and of
// the replan fixture's live readings and instruction patches) must be
// killed by the certification layer with exactly one typed cause — a
// surviving mutant fails the run. The kill table is deterministic;
// -json adds the certify-vs-pipeline overhead (BENCH_certify.json at
// the repository root is the recorded trajectory).
//
// -full enables the Enzyme10 LP solve in table2. It takes under a second
// (0.72–0.80 s on a 2.1 GHz Xeon), nearly all of it spent obtaining and
// zeroing the 1.03 GB dense tableau of its 9,096 rows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"aquavol/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run")
	full := flag.Bool("full", false, "include the Enzyme10 LP solve (under a second, 1 GB of tableau)")
	sweep := flag.Int("sweep", 5, "max N for the EnzymeN scaling sweep")
	seeds := flag.Int("seeds", 5, "seeds per cell in the robustness Monte-Carlo sweep")
	jsonOut := flag.String("json", "", "write the machine-readable report of the solver, storage-chaos, bounded or certify experiment to this file")
	ilpNodes := flag.Int("ilp-nodes", 0, "B&B node budget for the ilp experiment (0 = default 20000)")
	ilpTime := flag.Duration("ilp-time", 0, "wall-clock guard per ilp solve (0 = default 15s)")
	flag.Parse()
	ilpBounds := bench.ILPBounds{Nodes: *ilpNodes, Time: *ilpTime}

	var (
		tables []*bench.Table
		report any // the experiment's -json report, when it has one
		err    error
	)
	reported := func(t *bench.Table, r any, e error) { tables, report, err = []*bench.Table{t}, r, e }
	switch *experiment {
	case "solver":
		reported(bench.SolverBaseline())
	case "storage-chaos":
		reported(bench.StorageChaos())
	case "certify":
		reported(bench.Certify())
	case "bounded":
		reported(bench.Bounded())
	case "all":
		tables = bench.All(*full, *sweep)
	case "fig5":
		tables = []*bench.Table{bench.Fig5()}
	case "glucose":
		tables = []*bench.Table{bench.Glucose()}
	case "glycomics":
		tables = []*bench.Table{bench.Glycomics()}
	case "enzyme":
		tables = []*bench.Table{bench.Enzyme()}
	case "rounding":
		tables = []*bench.Table{bench.Rounding()}
	case "table2":
		tables = []*bench.Table{bench.Table2(*full)}
	case "scaling":
		tables = []*bench.Table{bench.ScalingTable(*sweep)}
	case "lpablation":
		tables = []*bench.Table{bench.LPAblation()}
	case "ilp":
		tables = []*bench.Table{bench.ILP(ilpBounds)}
	case "regen":
		tables = []*bench.Table{bench.Regen()}
	case "ablations":
		tables = []*bench.Table{
			bench.CascadeDepth(), bench.ReplicaSweep(),
			bench.RegenStrategy(), bench.OutputSkewSweep(),
		}
	case "cascade-depth":
		tables = []*bench.Table{bench.CascadeDepth()}
	case "replica-sweep":
		tables = []*bench.Table{bench.ReplicaSweep()}
	case "regen-strategy":
		tables = []*bench.Table{bench.RegenStrategy()}
	case "output-skew":
		tables = []*bench.Table{bench.OutputSkewSweep()}
	case "robustness":
		tables = []*bench.Table{bench.Robustness(*seeds)}
	case "margin-sweep":
		tables = []*bench.Table{bench.MarginSweep()}
	case "durability":
		tables = []*bench.Table{bench.Durability()}
	case "replan":
		tables = []*bench.Table{bench.Replan(*seeds)}
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *experiment, err)
		os.Exit(1)
	}
	if *jsonOut != "" && report != nil {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(t)
	}
}
