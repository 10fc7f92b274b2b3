package main

import (
	"errors"
	"fmt"
	"hash/crc32"

	"aquavol/internal/ais"
	"aquavol/internal/aquacore"
	"aquavol/internal/certify"
	"aquavol/internal/codegen"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/faults"
	"aquavol/internal/journal"
	"aquavol/internal/lang"
	"aquavol/internal/lang/elab"
	recovery "aquavol/internal/recover"
	"aquavol/internal/vfs"
)

// fluidvm's defaults for the flags the execute workload leaves unset.
const (
	vmYield         = 0.4
	vmRetries       = 3
	vmSnapshotEvery = 8
)

// vmAssay is an assay compiled the way cmd/fluidvm's buildAssay
// compiles it (no margin, no budget, certification on), up to the point
// where per-run state begins. Everything in it is read-only during a
// run, so one compile serves every run.
type vmAssay struct {
	name     string
	ep       *elab.Program
	g        *dag.Graph
	cfg      core.Config
	plan     *core.Plan // nil for staged assays
	prog     *ais.Program
	comp     *recovery.Compiled
	dry      map[string]float64
	hash     uint32 // the listing checksum the journal's begin record pins
	certHash uint32
}

// compileVM mirrors buildAssay's compile half. Staged assays build their
// volume source once here, as buildAssay does, to surface static-part
// errors; each run then builds its own, since the source is run state.
func compileVM(name, src string) (*vmAssay, error) {
	ep, err := lang.Compile(src)
	if err != nil {
		return nil, err
	}
	a := &vmAssay{name: name, ep: ep, g: ep.Graph, cfg: core.DefaultConfig()}
	if err := a.cfg.Validate(); err != nil {
		return nil, err
	}
	hasUnknown := false
	for _, n := range a.g.Nodes() {
		if n != nil && n.Unknown && !n.IsLeaf() {
			hasUnknown = true
		}
	}
	usedLP := false
	if hasUnknown {
		if _, err := a.source(nil); err != nil {
			return nil, err
		}
		usedLP = true
	} else {
		res, err := core.Manage(a.g, a.cfg, core.ManageOptions{})
		if err != nil {
			return nil, err
		}
		if err := certify.CheckPlan(res.Plan, a.cfg, core.StaticAvailability(a.cfg)); err != nil {
			return nil, fmt.Errorf("managed plan rejected: %w", err)
		}
		a.certHash = certify.PlanHash(res.Plan)
		a.g = res.Graph
		a.plan = res.Plan
		usedLP = res.UsedLP
	}
	cg, err := codegen.Generate(ep, a.g, codegen.Config{NoForwarding: usedLP})
	if err != nil {
		return nil, err
	}
	a.prog = cg.Prog
	a.comp = &recovery.Compiled{Graph: a.g, Clusters: cg.Clusters, VesselOf: cg.VesselOf}
	a.dry = codegen.DryInit(ep)
	a.hash = crc32.ChecksumIEEE([]byte(a.prog.String()))
	return a, nil
}

// source returns a fresh volume source for one run. A staged assay's
// source solves its measurement-independent parts now and the rest as
// the machine reports measurements, certifying each plan through the
// source's hook, as fluidvm wires it.
func (a *vmAssay) source(tr *tracer) (aquacore.VolumeSource, error) {
	if a.plan != nil {
		return aquacore.PlanSource{Plan: a.plan}, nil
	}
	s := tr.begin("core.runtime")
	defer tr.end(s)
	sp, err := core.NewStagedPlan(a.g, a.cfg)
	if err != nil {
		return nil, err
	}
	hook := func(part int, plan *core.Plan, avail core.Availability) error {
		s := tr.begin("certify.runtime")
		defer tr.end(s)
		return certify.CheckPlan(plan, a.cfg, avail)
	}
	ss, err := aquacore.NewStagedSource(sp, hook)
	if err != nil {
		return nil, err
	}
	if tr == nil {
		return ss, nil
	}
	tr.count("core.runtime_solves", float64(solvedParts(ss)))
	return &timedStaged{ss: ss, tr: tr}, nil
}

// timedStaged times the run-time partition solves a StagedSource makes
// when the machine reports a measurement. It passes through SolveErrors,
// the optional method the machine type-asserts, so the traced run
// executes the same program as the untraced one.
type timedStaged struct {
	ss *aquacore.StagedSource
	tr *tracer
}

var _ interface {
	aquacore.VolumeSource
	SolveErrors() []error
} = (*timedStaged)(nil)

func (t *timedStaged) EdgeVolume(edge int) (float64, bool) { return t.ss.EdgeVolume(edge) }
func (t *timedStaged) NodeVolume(node int) (float64, bool) { return t.ss.NodeVolume(node) }
func (t *timedStaged) SolveErrors() []error                { return t.ss.SolveErrors() }

func (t *timedStaged) Measured(node int, port string, volume float64) {
	before := solvedParts(t.ss)
	s := t.tr.begin("core.runtime")
	t.ss.Measured(node, port, volume)
	t.tr.end(s)
	t.tr.count("core.runtime_solves", float64(solvedParts(t.ss)-before))
}

func solvedParts(ss *aquacore.StagedSource) int {
	n := 0
	for _, p := range ss.Plans() {
		if p != nil {
			n++
		}
	}
	return n
}

// vmRun names one fluidvm -replan invocation: the assay, the fault
// profile and seed, and the instruction boundary a simulated kill
// strikes at (-1: none), after which the run is resumed from its
// journal as fluidvm -resume does.
type vmRun struct {
	profile string
	seed    int64
	crashAt int
}

// vmResult is how a run ended.
type vmResult struct {
	out *recovery.Outcome
	// m is the machine the run finished on.
	m *aquacore.Machine
	// journal is the run's journal, in memory.
	journal []byte
}

// machine builds the run's machine as buildAssay does. With tr set, the
// machine's instruction and event callbacks count executed instructions
// and recorded events.
func (a *vmAssay) machine(p faults.Profile, seed int64, tr *tracer) (*aquacore.Machine, error) {
	s := tr.begin("aquacore.build")
	defer tr.end(s)
	src, err := a.source(tr)
	if err != nil {
		return nil, err
	}
	var inj *faults.Injector
	if p.Enabled() {
		inj = faults.New(p, seed)
	}
	cfg := aquacore.Config{SeparationYield: vmYield, Faults: inj}
	if tr != nil {
		cfg.Trace = func(aquacore.TraceEntry) { tr.count("aquacore.instrs", 1) }
		cfg.EventTrace = func(aquacore.Event) { tr.count("aquacore.events", 1) }
	}
	m := aquacore.New(cfg, a.g, src)
	m.SetDry(a.dry)
	return m, nil
}

const journalPath = "run.aqj"

// run executes one fluidvm -replan run journaled to memory, and for a
// killed run the fluidvm -resume that completes it.
func (a *vmAssay) run(r vmRun, tr *tracer) (*vmResult, error) {
	prof, ok := faults.Preset(r.profile)
	if !ok {
		return nil, fmt.Errorf("unknown fault profile %q", r.profile)
	}
	m, err := a.machine(prof, r.seed, tr)
	if err != nil {
		return nil, err
	}
	fsys := newMemFS()
	jw, jf, err := journal.Create(fsys, journalPath, false)
	if err != nil {
		return nil, err
	}
	if err := jw.Append(&journal.Record{Kind: journal.KindBegin, Begin: &journal.Begin{
		Program: a.name,
		Hash:    a.hash,
		Instrs:  len(a.prog.Instrs),
		Profile: prof, Seed: r.seed,
		Yield:   vmYield,
		Retries: vmRetries, SnapshotEvery: vmSnapshotEvery,
		Replan:   true,
		CertHash: a.certHash,
	}}); err != nil {
		return nil, err
	}
	ropts := recovery.Options{RetriesPerInstr: vmRetries, SnapshotEvery: vmSnapshotEvery, EnableReplan: true, Journal: jw}
	if r.crashAt >= 0 {
		ropts.Crash = faults.CrashAt(r.crashAt)
	}
	s := tr.begin("recover")
	out := recovery.Run(m, a.prog, a.comp, ropts)
	tr.end(s)
	if err := jf.Close(); err != nil {
		return nil, err
	}
	if r.crashAt >= 0 {
		if !errors.Is(out.Err, faults.ErrCrash) {
			return nil, fmt.Errorf("kill at boundary %d did not strike: run ended %s", r.crashAt, out.Status)
		}
		if out, m, err = a.resume(fsys, tr); err != nil {
			return nil, err
		}
	}
	return &vmResult{out: out, m: m, journal: fsys.files[journalPath].b}, nil
}

// resume mirrors fluidvm's doResume: salvage the journal, rebuild the
// run from its begin record, check the program and plan hashes, and
// continue from the newest usable snapshot.
func (a *vmAssay) resume(fsys vfs.FS, tr *tracer) (*recovery.Outcome, *aquacore.Machine, error) {
	s := tr.begin("journal.read")
	recs, _, w, f, err := journal.OpenAppend(fsys, journalPath)
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	if recs[0].Kind != journal.KindBegin {
		return nil, nil, fmt.Errorf("resume: journal does not start with a begin record")
	}
	begin := recs[0].Begin
	if last := recs[len(recs)-1]; last.Kind == journal.KindOutcome {
		return nil, nil, fmt.Errorf("resume: journal is already closed")
	}
	var m *aquacore.Machine
	newMachine := func() (*aquacore.Machine, error) {
		var err error
		m, err = a.machine(begin.Profile, begin.Seed, tr)
		return m, err
	}
	first, err := newMachine()
	if err != nil {
		return nil, nil, err
	}
	if begin.Hash != a.hash || begin.Instrs != len(a.prog.Instrs) {
		return nil, nil, fmt.Errorf("resume: journal was recorded for a different program")
	}
	if begin.CertHash != 0 {
		if err := certify.VerifyHash(a.certHash, begin.CertHash); err != nil {
			return nil, nil, err
		}
	}
	ropts := recovery.Options{
		RetriesPerInstr: begin.Retries,
		SnapshotEvery:   begin.SnapshotEvery,
		EnableReplan:    begin.Replan,
		Journal:         w,
	}
	s = tr.begin("recover.resume")
	defer tr.end(s)
	snaps := recovery.Snapshots(recs)
	if len(snaps) == 0 {
		return recovery.Run(first, a.prog, a.comp, ropts), first, nil
	}
	out, _, err := recovery.ResumeFallback(newMachine, a.prog, a.comp, ropts, snaps, nil)
	return out, m, err
}
