package main

import (
	"errors"
	"fmt"
	"strings"

	"aquavol/internal/aisverify"
	"aquavol/internal/analysis"
	"aquavol/internal/aquacore"
	"aquavol/internal/budget"
	"aquavol/internal/certify"
	"aquavol/internal/codegen"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/diag"
	"aquavol/internal/lang"
	"aquavol/internal/lang/elab"
)

// fluidcRun is what one fluidc invocation prints and exits with, plus
// the artifacts the benchmark's output checks need.
type fluidcRun struct {
	Stdout, Stderr string
	Exit           int
	// Findings are the lint findings (nil without lint).
	Findings diag.List
	EP       *elab.Program
	// Graph is the DAG code was (or would be) generated from.
	Graph *dag.Graph
	// Plan is the static plan; nil for staged assays.
	Plan *core.Plan
	// Gen is the code generator's result; nil unless a listing was
	// emitted.
	Gen *codegen.Result
}

// fluidc runs the compile pipeline of cmd/fluidc on src, which fluidc
// would have read from path, with -lint and/or -dot set: the same
// public calls in the same order, the same text on stdout and stderr,
// and the same exit status. A fluidc change that alters its pipeline
// must be mirrored here; the fidelity test compares the two
// byte for byte.
//
// When tr is non-nil each layer call runs in a span, and core and
// certify each get an unlimited budget.Meter whose charges are counted
// as work units.
func fluidc(path, src string, lint, dot bool, tr *tracer) *fluidcRun {
	r := &fluidcRun{}
	var stdout, stderr strings.Builder
	finish := func(exit int) *fluidcRun {
		r.Stdout, r.Stderr, r.Exit = stdout.String(), stderr.String(), exit
		return r
	}
	fatal := func(err error) *fluidcRun {
		fmt.Fprintln(&stderr, "fluidc:", err)
		return finish(1)
	}

	s := tr.begin("lang")
	ep, err := lang.Compile(src)
	tr.end(s)
	if err != nil {
		return fatal(err)
	}
	r.EP = ep
	cfg := core.DefaultConfig()

	if lint {
		s := tr.begin("analysis")
		findings, err := analysis.Analyze(ep, cfg, analysis.Options{})
		tr.end(s)
		if err != nil {
			return fatal(err)
		}
		r.Findings = findings
		tr.count("analysis.findings", float64(len(findings)))
		bad := false
		for _, d := range findings {
			bad = bad || d.Severity == diag.Error
			fmt.Fprintf(&stderr, "%s:%s\n", path, d.Error())
		}
		if bad {
			return finish(1)
		}
	}

	g := ep.Graph
	var plan *core.Plan
	usedLP := false
	hasUnknown := false
	for _, n := range g.Nodes() {
		if n != nil && n.Unknown && !n.IsLeaf() {
			hasUnknown = true
		}
	}
	tr.count("dag.nodes_in", float64(len(g.Nodes())))
	certifyPlan := func(what string, p *core.Plan, avail core.Availability) error {
		ccfg, meter := metered(cfg, tr)
		s := tr.begin("certify")
		err := certify.CheckPlan(p, ccfg, avail)
		tr.end(s)
		tr.count("certify.work_units", float64(meter.Used()))
		if err != nil {
			return fmt.Errorf("%s plan rejected: %w", what, err)
		}
		return nil
	}
	ccfg, meter := metered(cfg, tr)
	if hasUnknown {
		s := tr.begin("core")
		sp, err := core.NewStagedPlan(g, ccfg)
		var done []int
		if err == nil {
			done, err = sp.SolveStatic()
		}
		tr.end(s)
		tr.count("core.work_units", float64(meter.Used()))
		if err != nil {
			return fatal(err)
		}
		countStaged(tr, sp, done)
		for _, i := range done {
			if sp.Plans[i] != nil && sp.Plans[i].Feasible() {
				if err := certifyPlan(fmt.Sprintf("partition %d", i), sp.Plans[i], sp.PartAvailability(i, nil)); err != nil {
					return fatal(err)
				}
			}
		}
		fmt.Fprintf(&stderr, "assay has statically-unknown volumes: %d partitions, %d solvable at compile time\n",
			sp.NumParts(), len(done))
	} else {
		s := tr.begin("core")
		res, err := core.Manage(g, ccfg, core.ManageOptions{})
		tr.end(s)
		tr.count("core.work_units", float64(meter.Used()))
		if errors.Is(err, core.ErrUnmanageable) || errors.Is(err, core.ErrResourceLimit) {
			return fatal(fmt.Errorf("%w\ntrace:\n%s", err, traceText(res)))
		} else if err != nil {
			return fatal(err)
		}
		countManaged(tr, res)
		g = res.Graph
		plan = res.Plan
		usedLP = res.UsedLP
		if err := certifyPlan("managed", plan, core.StaticAvailability(cfg)); err != nil {
			return fatal(err)
		}
		for _, t := range res.Transforms {
			fmt.Fprintf(&stderr, "applied %s\n", t)
		}
	}
	r.Graph, r.Plan = g, plan
	tr.count("dag.nodes_out", float64(len(g.Nodes())))

	if dot {
		s := tr.begin("dag.dot")
		stdout.WriteString(g.DOT(ep.Name))
		tr.end(s)
		return finish(0)
	}

	s = tr.begin("codegen")
	cg, err := codegen.Generate(ep, g, codegen.Config{NoForwarding: usedLP})
	if err != nil {
		tr.end(s)
		return fatal(err)
	}
	opts := aisverify.Options{UnknownVolumes: plan == nil}
	if plan != nil {
		opts.Volumes, err = cg.VolumeTable(func(edge int) (float64, bool) {
			if edge < 0 || edge >= len(plan.EdgeVolume) {
				return 0, false
			}
			return plan.EdgeVolume[edge], true
		})
	}
	tr.end(s)
	if err != nil {
		return fatal(err)
	}
	tr.count("codegen.max_live_reservoirs", float64(cg.MaxLiveReservoirs))

	for name := range codegen.DryInit(ep) {
		opts.DefinedRegs = append(opts.DefinedRegs, name)
	}
	if plan != nil {
		opts.NodeVolume = aquacore.PlanSource{Plan: plan}.NodeVolume
	}
	s = tr.begin("aisverify")
	findings := aisverify.Verify(cg.Prog, opts)
	tr.end(s)
	tr.count("aisverify.findings", float64(len(findings)))
	for _, d := range findings {
		fmt.Fprintf(&stderr, "aisverify: %s\n", d.Error())
	}
	if findings.HasErrors() {
		return finish(1)
	}

	s = tr.begin("ais")
	stdout.WriteString(cg.Prog.String())
	tr.end(s)
	r.Gen = cg
	tr.count("codegen.listings", 1)
	tr.count("codegen.listing_instrs", float64(len(cg.Prog.Instrs)))
	return finish(0)
}

// metered returns cfg with a fresh unlimited meter when tracing, so the
// call's work units can be read back; untraced runs keep fluidc's nil
// meter.
func metered(cfg core.Config, tr *tracer) (core.Config, *budget.Meter) {
	if tr == nil {
		return cfg, nil
	}
	m := budget.New(0)
	cfg.Budget = m
	return cfg, m
}

// countManaged records the Fig. 6 hierarchy's work from its result.
// Every attempt whose DAGSolve underflows runs the LP fallback, so the
// LP ran on every attempt but a final DAGSolve-feasible one, and at
// most the last LP solve (when UsedLP) gave the plan.
func countManaged(tr *tracer, res *core.ManageResult) {
	solves := res.Attempts
	useful := 0
	if res.UsedLP {
		useful = 1
	} else {
		solves--
	}
	tr.count("core.attempts", float64(res.Attempts))
	tr.count("core.transforms", float64(len(res.Transforms)))
	tr.count("core.lp_solves", float64(solves))
	tr.count("core.lp_useful", float64(useful))
}

// countStaged records the static partition solves: each solved part is
// one attempt, and a part ran the LP when its plan came from it or when
// it stayed infeasible after DAGSolve underflowed.
func countStaged(tr *tracer, sp *core.StagedPlan, done []int) {
	tr.count("core.attempts", float64(len(done)))
	for _, i := range done {
		switch {
		case sp.UsedLP[i]:
			tr.count("core.lp_solves", 1)
			tr.count("core.lp_useful", 1)
		case sp.Plans[i] != nil && !sp.Plans[i].Feasible():
			tr.count("core.lp_solves", 1)
		}
	}
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
