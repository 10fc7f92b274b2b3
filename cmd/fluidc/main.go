// Command fluidc compiles an assay-language source file to AquaCore
// Instruction Set code with an automatically-managed volume plan: the full
// pipeline of the paper (parse → check → elaborate/unroll → volume
// management hierarchy → code generation).
//
// Usage:
//
//	fluidc [-plan] [-dot] [-lint] [-Werror] [-no-manage] [-no-verify] [-no-certify] assay.asy
//
// -plan prints the volume plan alongside the listing, -dot emits the
// (transformed) assay DAG in Graphviz format, -lint runs the compile-time
// volume-safety analyzer (see cmd/fluidlint) before volume management and
// fails on error findings, -Werror additionally promotes lint warnings to
// errors, -no-manage skips the cascading/replication hierarchy (plain
// DAGSolve only).
//
// Every solved plan (including each statically-solved partition of a
// staged assay) is certified by the independent checker
// (internal/certify) before code generation; a certification failure
// fails the compile. -no-certify skips this pass. -mutate-plan perturbs
// the solved plan before certification, to prove the gate fires (used by
// CI; a mutated compile must exit non-zero).
//
// After code generation the emitted listing is checked by the
// instruction-level verifier (internal/aisverify) against the volume plan;
// error findings fail the compile. -no-verify skips this pass.
//
// The stages are internal/pipeline's, shared with fluidvm, so the listing
// is the one fluidvm runs. Storage-less forwarding is off for LP plans
// and for staged assays (whose partitions may fall back to LP at run
// time), so staged listings compile with forwarding off, as fluidvm runs
// them.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"aquavol/internal/analysis"
	"aquavol/internal/core"
	"aquavol/internal/diag"
	"aquavol/internal/lang"
	"aquavol/internal/pipeline"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fluidc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	showPlan := fs.Bool("plan", false, "print the volume plan")
	showDot := fs.Bool("dot", false, "emit the assay DAG in Graphviz dot")
	lint := fs.Bool("lint", false, "run the volume-safety analyzer before compiling")
	wError := fs.Bool("Werror", false, "treat lint warnings as errors (implies -lint)")
	noManage := fs.Bool("no-manage", false, "skip the cascading/replication hierarchy")
	noVerify := fs.Bool("no-verify", false, "skip the post-codegen instruction-level verifier")
	noCertify := fs.Bool("no-certify", false, "skip the independent plan-certification pass")
	mutatePlan := fs.Bool("mutate-plan", false, "perturb the solved plan before certification (CI gate check)")
	outFile := fs.String("o", "", "write the AIS listing to this file instead of stdout")
	volFile := fs.String("voltab", "", "write the per-instruction volume table to this file (static assays only)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: fluidc [flags] assay.asy")
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "fluidc:", err)
		return 1
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fatal(err)
	}
	ep, err := lang.Compile(string(src))
	if err != nil {
		return fatal(err)
	}
	cfg := core.DefaultConfig()

	if *lint || *wError {
		findings, err := analysis.Analyze(ep, cfg, analysis.Options{})
		if err != nil {
			return fatal(err)
		}
		bad := false
		for _, d := range findings {
			if *wError && d.Severity == diag.Warning {
				d.Severity = diag.Error
			}
			bad = bad || d.Severity == diag.Error
			fmt.Fprintf(stderr, "%s:%s\n", fs.Arg(0), d.Error())
		}
		if bad {
			return 1
		}
	}

	// Volume management: statically-known assays go through the Fig. 6
	// hierarchy; assays with unknown volumes get compile-time Vnorms and
	// defer absolute assignment to the runtime (§3.5).
	p, err := pipeline.Plan(ep, pipeline.Options{Config: cfg, NoManage: *noManage, NoCertify: *noCertify, NoVerify: *noVerify})
	if errors.Is(err, core.ErrUnmanageable) || errors.Is(err, core.ErrResourceLimit) {
		return fatal(fmt.Errorf("%w\ntrace:\n%s", err, traceText(p.Manage)))
	} else if err != nil {
		return fatal(err)
	}
	// Proof-carrying plans: the solver's output never reaches codegen
	// uncertified. -mutate-plan seeds a perturbation first so CI can
	// prove the gate fires.
	if *mutatePlan {
		for _, plan := range p.Plans() {
			for i, v := range plan.EdgeVolume {
				if v > 0 {
					plan.EdgeVolume[i] += 0.5
					break
				}
			}
		}
	}
	if err := pipeline.Certify(p); err != nil {
		return fatal(err)
	}
	switch {
	case p.Staged != nil:
		fmt.Fprintf(stderr, "assay has statically-unknown volumes: %d partitions, %d solvable at compile time\n",
			p.Staged.NumParts(), len(p.Static))
	case p.Manage != nil:
		for _, tr := range p.Manage.Transforms {
			fmt.Fprintf(stderr, "applied %s\n", tr)
		}
	case !p.Plan.Feasible():
		fmt.Fprintf(stderr, "warning: DAGSolve underflows (%d); rerun without -no-manage\n", len(p.Plan.Underflows))
	}

	if *showDot {
		fmt.Fprint(stdout, p.Graph.DOT(ep.Name))
		return 0
	}
	res, err := pipeline.Generate(p)
	if err != nil {
		return fatal(err)
	}
	for _, d := range res.Findings {
		fmt.Fprintf(stderr, "aisverify: %s\n", d.Error())
	}
	if res.Findings.HasErrors() {
		return 1
	}

	listing := res.Prog.String()
	if *outFile != "" {
		if err := os.WriteFile(*outFile, []byte(listing), 0o644); err != nil {
			return fatal(err)
		}
	} else {
		fmt.Fprint(stdout, listing)
	}
	if *volFile != "" {
		if res.Plan == nil {
			return fatal(fmt.Errorf("-voltab requires a statically-solvable assay"))
		}
		if err := os.WriteFile(*volFile, []byte(res.Volumes.String()), 0o644); err != nil {
			return fatal(err)
		}
	}
	if *showPlan && res.Plan != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, res.Plan)
	}
	return 0
}

func traceText(res *core.ManageResult) string {
	if res == nil {
		return ""
	}
	out := ""
	for _, l := range res.Trace {
		out += "  " + l + "\n"
	}
	return out
}
