// Package pipeline is the one compile path of the toolchain: an
// elaborated assay is planned (the Fig. 6 management hierarchy, plain
// DAGSolve, or staged partitions when volumes are statically unknown,
// §3.5), its compile-time plans are certified, and its listing is
// generated and verified. Each run then gets a fresh machine over the
// compiled plan; staged assays finish their remaining partitions at run
// time from the same partitioned plan. fluidc, fluidvm, the experiment
// harness and the profiler are thin callers of these stages.
package pipeline

import (
	"fmt"
	"sort"

	"aquavol/internal/ais"
	"aquavol/internal/aisverify"
	"aquavol/internal/aquacore"
	"aquavol/internal/certify"
	"aquavol/internal/codegen"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/diag"
	"aquavol/internal/lang/elab"
	recovery "aquavol/internal/recover"
)

// Options configures a compile. A Config.Budget meter is charged by
// planning, certification and run-time partition solves alike.
type Options struct {
	Config core.Config
	// NoManage plans with plain DAGSolve instead of the hierarchy.
	NoManage bool
	// NoCertify skips plan certification, at compile time and run time.
	NoCertify bool
	// NoVerify skips the instruction-level verifier.
	NoVerify bool
}

// Planned is the output of the Plan stage.
type Planned struct {
	// Graph is the DAG code is generated from: the managed (possibly
	// transformed) one for static plans.
	Graph *dag.Graph
	// Plan is the static plan; nil for staged assays.
	Plan *core.Plan
	// Manage is the hierarchy's result (transforms, trace); nil unless
	// the hierarchy ran. It survives a failed Manage for its trace.
	Manage *core.ManageResult
	// Staged is the partitioned plan of an assay with unknown volumes,
	// and Static lists the partitions it solved at compile time.
	Staged *core.StagedPlan
	Static []int
	// CertHash is the certificate hash of a certified static plan, 0
	// otherwise.
	CertHash uint32

	ep   *elab.Program
	opts Options
}

// Plan assigns compile-time volumes. It always returns a Planned, which
// on error holds what the failed planner produced.
func Plan(ep *elab.Program, opts Options) (*Planned, error) {
	p := &Planned{Graph: ep.Graph, ep: ep, opts: opts}
	cfg := opts.Config
	var err error
	switch {
	case ep.Graph.NeedsPartition():
		if p.Staged, err = core.NewStagedPlan(ep.Graph, cfg); err == nil {
			p.Static, err = p.Staged.SolveStatic()
		}
	case opts.NoManage:
		p.Plan, err = core.DAGSolve(ep.Graph, cfg, nil)
	default:
		p.Manage, err = core.Manage(ep.Graph, cfg, core.ManageOptions{})
		if err == nil {
			p.Graph, p.Plan = p.Manage.Graph, p.Manage.Plan
		}
	}
	return p, err
}

// check is one plan Certify verifies: the name a rejection reports and
// the availability the plan was solved under.
type check struct {
	what  string
	plan  *core.Plan
	avail core.Availability
}

func (p *Planned) checks() []check {
	switch {
	case p.Staged != nil:
		var out []check
		for _, i := range p.Static {
			if plan := p.Staged.Plans[i]; plan != nil && plan.Feasible() {
				out = append(out, check{fmt.Sprintf("partition %d", i), plan, p.Staged.PartAvailability(i, nil)})
			}
		}
		return out
	case p.Manage != nil:
		return []check{{"managed", p.Plan, core.StaticAvailability(p.opts.Config)}}
	case p.Plan.Feasible():
		return []check{{"unmanaged", p.Plan, nil}}
	}
	return nil
}

// Plans returns the compile-time plans Certify checks.
func (p *Planned) Plans() []*core.Plan {
	var out []*core.Plan
	for _, c := range p.checks() {
		out = append(out, c.plan)
	}
	return out
}

// Certify gates every feasible compile-time plan behind the independent
// checker, so no solver output reaches codegen unverified.
func Certify(p *Planned) error {
	if p.opts.NoCertify {
		return nil
	}
	for _, c := range p.checks() {
		if err := certify.CheckPlan(c.plan, p.opts.Config, c.avail); err != nil {
			return fmt.Errorf("%s plan rejected: %w", c.what, err)
		}
		if c.plan == p.Plan {
			p.CertHash = certify.PlanHash(c.plan)
		}
	}
	return nil
}

// Result is a compiled assay: its plan, listing, volume table and the
// verifier's findings.
type Result struct {
	*Planned
	Prog *ais.Program
	// Volumes is the per-instruction volume table; nil for staged assays.
	Volumes ais.VolumeTable
	// Findings are the verifier's; error findings do not fail Generate,
	// so callers report them and refuse the listing.
	Findings diag.List

	gen *codegen.Result
}

// Generate emits the listing. Storage-less forwarding is off whenever
// production can exceed consumption: LP plans (no flow conservation),
// staged assays (their partitions may fall back to LP at run time) and
// any safety margin.
func Generate(p *Planned) (*Result, error) {
	noFwd := p.Staged != nil || p.opts.Config.SafetyMargin > 0 || (p.Manage != nil && p.Manage.UsedLP)
	gen, err := codegen.Generate(p.ep, p.Graph, codegen.Config{NoForwarding: noFwd})
	if err != nil {
		return nil, err
	}
	r := &Result{Planned: p, Prog: gen.Prog, gen: gen}
	if p.Plan != nil {
		if r.Volumes, err = gen.VolumeTable(aquacore.PlanSource{Plan: p.Plan}.EdgeVolume); err != nil {
			return nil, err
		}
	}
	if p.opts.NoVerify {
		return r, nil
	}
	r.Findings = aisverify.Verify(gen.Prog, VerifyOptions(p.ep, p.Plan, r.Volumes))
	return r, nil
}

// VerifyOptions are the verifier options for a listing of ep with volume
// table vols, generated from plan: its planned volumes, or volumes left
// to run time when plan is nil (a staged assay), and ep's preset dry
// registers.
func VerifyOptions(ep *elab.Program, plan *core.Plan, vols ais.VolumeTable) aisverify.Options {
	var regs []string
	for name := range codegen.DryInit(ep) {
		regs = append(regs, name)
	}
	sort.Strings(regs)
	opts := aisverify.Options{UnknownVolumes: plan == nil, Volumes: vols, DefinedRegs: regs}
	if plan != nil {
		opts.NodeVolume = aquacore.PlanSource{Plan: plan}.NodeVolume
	}
	return opts
}

// Build runs Plan, Certify and Generate.
func Build(ep *elab.Program, opts Options) (*Result, error) {
	p, err := Plan(ep, opts)
	if err != nil {
		return nil, err
	}
	if err := Certify(p); err != nil {
		return nil, err
	}
	return Generate(p)
}

// Source returns a fresh volume source for one run. A staged assay's
// source starts from the compile-time partition plans, and certifies
// each partition it solves at run time unless NoCertify.
func (r *Result) Source() (aquacore.VolumeSource, error) {
	if r.Staged == nil {
		return aquacore.PlanSource{Plan: r.Plan}, nil
	}
	var hook aquacore.CertifyPart
	if !r.opts.NoCertify {
		cfg := r.opts.Config
		hook = func(_ int, plan *core.Plan, avail core.Availability) error {
			return certify.CheckPlan(plan, cfg, avail)
		}
	}
	src, err := aquacore.NewStagedSource(r.Staged.Fork(), hook)
	if err != nil {
		return nil, err
	}
	return src, nil
}

// Machine returns a fresh machine for one run over a fresh Source, with
// the assay's compile-time dry registers preset. The machine runs, and
// re-solves residual replans, under the compile's volume parameters
// (they replace acfg.Volume), safety margin included, with the
// compile's meter cleared: a replan charges nothing, and acfg.Budget
// bounds the run.
func (r *Result) Machine(acfg aquacore.Config) (*aquacore.Machine, error) {
	src, err := r.Source()
	if err != nil {
		return nil, err
	}
	acfg.Volume = r.opts.Config
	acfg.Volume.Budget = nil
	m := aquacore.New(acfg, r.Graph, src)
	m.SetDry(codegen.DryInit(r.ep))
	return m, nil
}

// Compiled bundles what the recovery runtime's regeneration and
// replanning need.
func (r *Result) Compiled() *recovery.Compiled {
	return &recovery.Compiled{Graph: r.Graph, Clusters: r.gen.Clusters, VesselOf: r.gen.VesselOf}
}

// Executable is what a journaled run of the compiled assay executes,
// under the program name name.
func (r *Result) Executable(name string) *recovery.Executable {
	return &recovery.Executable{Name: name, Prog: r.Prog, Compiled: r.Compiled(), CertHash: r.CertHash, Machine: r.Machine}
}
