// Command fluidvm compiles an assay and executes it on the AquaCore PLoC
// simulator with the runtime volume manager in the loop: static plans are
// applied directly; assays with unknown volumes are re-planned partition
// by partition as the simulated separations report their measured outputs
// (§3.5). It compiles through the same pipeline as fluidc
// (internal/pipeline), so fluidc prints the listing fluidvm runs, and it
// verifies that listing before running it: the verifier's findings print
// as fluidc prints them, and an error finding exits 1.
//
// Usage:
//
//	fluidvm [-yield F] [-trace] [-faults PROFILE] [-seed N] [-margin F]
//	        [-recover] [-replan] [-retries N] [-journal PATH]
//	        [-snapshot-every N] [-crash-at N] [-budget N] [-deadline D]
//	        assay.asy
//	fluidvm -ais prog.ais -voltab prog.vol       # run a shipped listing
//	fluidvm -resume run.aqj assay.asy            # continue a crashed run
//
// -trace streams one line per executed instruction to stderr with the
// pre→post volume of every vessel the instruction touches — the concrete
// replay channel for aisverify findings.
//
// -faults injects imperfect fluidics: a preset (none, mild, moderate,
// harsh) or a comma list like "jitter=0.02,dead=0.05,evap=5e-5,
// noise=0.02,fail=0.01". The run is reproducible from -seed. -margin
// over-provisions every planned volume by (1+F). -recover wraps execution
// in the recovery runtime (bounded retries, capped by -retries per
// instruction, plus backward-slice regeneration of depleted fluids);
// shipped listings (-ais) recover with retries only, having no DAG.
// -replan (implies -recover) additionally lets a volume shortfall
// re-solve the residual DAG around the live vessel volumes and rescale
// the remaining instructions, consuming no fresh reagent; regeneration
// stays the fallback. Replan counts appear in the recovery summary line
// and, under -trace, each repair event streams to stderr as it happens.
//
// -journal makes the run durable: a write-ahead log of execution records
// and periodic machine snapshots (cadence -snapshot-every boundaries).
// Creating a journal over an existing non-empty one is refused — it may
// be the only crash evidence of an interrupted run — unless
// -force-journal is given. -resume restores the newest usable snapshot
// from such a journal and continues, falling back to earlier snapshots
// (and ultimately a restart) when the newest is unrestorable; the run
// configuration (profile, seed, margin, yield, retry budget, cadence,
// replanning) is taken from the journal's opening begin record, not from
// flags, and the rebuilt program must hash-match the journaled one. The
// program is built once per -resume (the assay compiled at the journaled
// margin, or the -ais listing and volume table assembled), and every
// fallback rung gets a fresh machine from it. A run executes its first
// instruction only after its begin record is durable. Because
// execution is deterministic, a resumed run finishes bit-identical to
// one that was never interrupted. -crash-at N simulates a process kill
// after instruction boundary N (chaos testing). All three imply -recover.
//
// -fsfaults injects storage faults underneath the journal (chaos
// testing): either a deterministic strike list like "sync@3:lying" or
// "write@5:enospc:sticky" (see internal/vfs.ParseStrikes), or a
// rate-based profile like "write=0.01,sync=0.005" drawn from the
// -fsfault-seed PRNG. The fluidic machine is untouched — only the
// journal's filesystem misbehaves.
//
// -budget N bounds the run to N work units (planning charges solver
// pivots and DAG node visits, execution one unit per instruction);
// -deadline D adds a wall-clock bound. Either trip stops the run
// cooperatively with a typed cause and exit code 5. Under -journal a
// cancelled run fail-stops exactly like a crash — the journal keeps no
// outcome record and -resume completes it bit-identically (budgets are
// resource guards, never replayed state). Both flags also bound a
// -resume itself, which charges planning once.
//
// Every solved plan is certified by the independent checker
// (internal/certify) before a single instruction executes: the static
// plan at build time, each staged partition as it is solved (including
// at run time, from measurements), and every residual replan before its
// patches apply. A certification failure refuses to run with exit code
// 6 and, under -journal, leaves no outcome record. Journaled runs
// record the plan's certificate hash in the begin record; -resume
// recomputes the hash from the re-derived plan and refuses a mismatch
// with the same exit code — the journal's plan is not the plan that
// was certified. -no-certify skips all certification (and the resume
// hash check).
//
// Exit codes: 0 completed, 1 error, 2 completed-degraded (unrepaired
// faults), 3 aborted, 4 resume failure, 5 cancelled/deadline/budget
// exceeded, 6 plan certification failure, 64 usage.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"aquavol/internal/ais"
	"aquavol/internal/aquacore"
	"aquavol/internal/budget"
	"aquavol/internal/certify"
	"aquavol/internal/core"
	"aquavol/internal/faults"
	"aquavol/internal/journal"
	"aquavol/internal/lang"
	"aquavol/internal/pipeline"
	recovery "aquavol/internal/recover"
	"aquavol/internal/vfs"
)

// Structured exit codes: scripts branch on the terminal status without
// parsing output. Usage errors exit 64 (BSD EX_USAGE) so 2 can mean
// degraded-but-complete.
const (
	exitCompleted    = 0
	exitError        = 1
	exitDegraded     = 2
	exitAborted      = 3
	exitResumeFailed = 4
	exitCancelled    = 5
	exitCertFailed   = 6
	exitUsage        = 64
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fluidvm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	yield := fs.Float64("yield", 0.4, "separation effluent yield fraction")
	trace := fs.Bool("trace", false, "stream executed instructions with pre/post vessel volumes")
	aisFile := fs.String("ais", "", "execute a textual AIS listing (requires -voltab)")
	volFile := fs.String("voltab", "", "per-instruction volume table for -ais")
	faultSpec := fs.String("faults", "none", "fault profile: preset name or k=v list")
	seed := fs.Int64("seed", 0, "fault-injection PRNG seed")
	margin := fs.Float64("margin", 0, "safety margin: over-provision planned volumes by (1+F)")
	rec := fs.Bool("recover", false, "enable the recovery runtime (retry + regeneration)")
	replan := fs.Bool("replan", false, "enable adaptive replanning on shortfalls (implies -recover)")
	retries := fs.Int("retries", 3, "retry budget per failed instruction under -recover")
	journalPath := fs.String("journal", "", "write a durable-execution journal to PATH (implies -recover)")
	resumePath := fs.String("resume", "", "resume a crashed run from its journal (implies -recover)")
	crashAt := fs.Int("crash-at", -1, "simulate a process kill after instruction boundary N (implies -recover)")
	snapEvery := fs.Int("snapshot-every", 8, "journal snapshot cadence in instruction boundaries")
	forceJournal := fs.Bool("force-journal", false, "overwrite an existing non-empty journal at -journal PATH")
	fsFaults := fs.String("fsfaults", "", "inject storage faults under the journal: strike list (op@N[:mod]) or rate profile (k=v)")
	fsFaultSeed := fs.Int64("fsfault-seed", 0, "PRNG seed for rate-based -fsfaults profiles")
	budgetN := fs.Int64("budget", 0, "bound the run to N work units (0 = unlimited); tripping exits 5")
	deadline := fs.Duration("deadline", 0, "wall-clock deadline for the whole run (0 = none); tripping exits 5")
	noCertify := fs.Bool("no-certify", false, "skip independent plan certification (and the resume hash check)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	// One meter bounds the whole invocation — planning, execution, and
	// resume alike. Nil when unbounded, so the default path charges nothing.
	var meter *budget.Meter
	if *budgetN > 0 || *deadline > 0 {
		meter = budget.New(*budgetN).WithDeadline(*deadline)
	}
	fsys, err := buildFS(*fsFaults, *fsFaultSeed)
	if err != nil {
		return fail(stderr, err)
	}
	acfg := aquacore.Config{SeparationYield: *yield, Budget: meter}
	if *trace {
		acfg.Trace, acfg.EventTrace = traceTo(stderr), eventTo(stderr)
	}
	// build compiles the assay at a safety margin, or assembles the
	// shipped listing: the program a run (or a resume) executes.
	build := func(margin float64) (*recovery.Executable, error) {
		if *aisFile != "" {
			return shipped(*aisFile, *volFile)
		}
		if fs.NArg() != 1 {
			return nil, errUsage
		}
		res, err := compile(fs.Arg(0), margin, *noCertify, meter, stderr)
		if err != nil {
			return nil, err
		}
		return res.Executable(fs.Arg(0)), nil
	}

	if *resumePath != "" {
		return resume(fsys, *resumePath, build, acfg, *noCertify, stdout, stderr)
	}

	prof, err := faults.ParseProfile(*faultSpec)
	if err != nil {
		return fail(stderr, err)
	}
	ropts := recovery.Options{RetriesPerInstr: *retries, SnapshotEvery: *snapEvery, EnableReplan: *replan, NoCertify: *noCertify}
	if *crashAt >= 0 {
		ropts.Crash = faults.CrashAt(*crashAt)
	}
	x, err := build(*margin)
	if errors.Is(err, errUsage) {
		fmt.Fprintln(stderr, "usage: fluidvm [flags] assay.asy")
		return exitUsage
	}
	if err != nil {
		return notRun(stderr, err)
	}
	if *journalPath != "" {
		out, err := recovery.Start(fsys, *journalPath, *forceJournal, x, prof, *seed, *margin, acfg, ropts)
		if out == nil {
			return notRun(stderr, err)
		}
		return finish(out, stdout, stderr)
	}
	m, err := x.Fresh(prof, *seed, acfg)
	if err != nil {
		return notRun(stderr, err)
	}
	if *rec || *replan || *crashAt >= 0 {
		return finish(recovery.Run(m, x.Prog, x.Compiled, ropts), stdout, stderr)
	}
	res, err := m.Run(x.Prog)
	if err != nil {
		if budget.IsStop(err) {
			fmt.Fprintln(stderr, "fluidvm:", err)
			return exitCancelled
		}
		return fail(stderr, err)
	}
	report(stdout, res)
	return exitCompleted
}

// errUsage is build's complaint that no single assay was named.
var errUsage = errors.New("usage")

// notRun maps an error that kept the run from starting to its exit code.
func notRun(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "fluidvm:", err)
	switch {
	// A budget/deadline trip during planning (vnorm sweeps, LP pivots,
	// ILP nodes) is a bounded stop, not a compile error.
	case budget.IsStop(err):
		return exitCancelled
	// A certification failure is a refused plan, not a broken build: its
	// own exit code so scripts can tell "the checker said no" from a
	// compile error.
	case errors.Is(err, certify.ErrCertificate):
		return exitCertFailed
	}
	return exitError
}

// buildFS constructs the journal's filesystem from the -fsfaults spec:
// empty means the real OS, "@" terms select deterministic strikes, "="
// terms a rate-based disk profile drawn from seed. Both fault shapes can
// be combined in one comma list.
func buildFS(spec string, seed int64) (vfs.FS, error) {
	if spec == "" {
		return vfs.OS{}, nil
	}
	var strikeTerms, rateTerms []string
	for _, term := range strings.Split(spec, ",") {
		switch {
		case strings.TrimSpace(term) == "":
		case strings.Contains(term, "@"):
			strikeTerms = append(strikeTerms, term)
		default:
			rateTerms = append(rateTerms, term)
		}
	}
	strikes, err := vfs.ParseStrikes(strings.Join(strikeTerms, ","))
	if err != nil {
		return nil, err
	}
	var disk *faults.DiskInjector
	if len(rateTerms) > 0 {
		p, err := faults.ParseDiskProfile(strings.Join(rateTerms, ","))
		if err != nil {
			return nil, err
		}
		if p.Enabled() {
			disk = faults.NewDisk(p, seed)
		}
	}
	return vfs.NewFaulty(vfs.OS{}, strikes, disk), nil
}

// resume continues a crashed journaled run through recovery.Resume,
// appending to the recovered journal. Configuration comes from the
// journal's begin record; only the program (rebuilt once by build at the
// journaled margin) and -trace come from the command line. Notices go to
// stderr so stdout stays byte-identical to the uninterrupted run's.
func resume(fsys vfs.FS, path string, build func(float64) (*recovery.Executable, error), acfg aquacore.Config,
	noCertify bool, stdout, stderr io.Writer) int {
	var buildErr error
	out, _, err := recovery.Resume(fsys, path, acfg, recovery.Options{NoCertify: noCertify},
		func(b *journal.Begin) (*recovery.Executable, error) {
			x, err := build(b.Margin)
			buildErr = err
			return x, err
		},
		func(s string) { fmt.Fprintf(stderr, "fluidvm: resume: %s\n", s) })
	switch {
	case out != nil:
		return finish(out, stdout, stderr)
	case errors.Is(buildErr, errUsage):
		fmt.Fprintln(stderr, "usage: fluidvm -resume run.aqj assay.asy")
		return exitUsage
	case errors.Is(err, certify.ErrCertificate):
		fmt.Fprintln(stderr, "fluidvm: resume:", err)
		return exitCertFailed
	case buildErr != nil:
		return notRun(stderr, buildErr)
	}
	fmt.Fprintln(stderr, "fluidvm: resume:", err)
	return exitResumeFailed
}

// compile builds the assay at path through the shared pipeline with the
// run's safety margin and budget, so a resume rebuilds the identical
// program. The verifier's findings print as fluidc prints them, and an
// error finding refuses the listing.
func compile(path string, margin float64, noCertify bool, meter *budget.Meter, stderr io.Writer) (*pipeline.Result, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ep, err := lang.Compile(string(src))
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.SafetyMargin = margin
	cfg.Budget = meter
	res, err := pipeline.Build(ep, pipeline.Options{Config: cfg, NoCertify: noCertify})
	if err != nil {
		return nil, err
	}
	for _, d := range res.Findings {
		fmt.Fprintf(stderr, "aisverify: %s\n", d.Error())
	}
	if res.Findings.HasErrors() {
		return nil, errors.New("listing failed verification")
	}
	return res, nil
}

// shipped assembles a compiled (listing, volume table) pair — the
// artifact fluidc -o/-voltab produces — once, with no source or DAG
// available; every run gets a fresh machine over it. Recovery is
// retry-only here: regeneration needs the DAG and cluster map that only
// a fresh compile carries.
func shipped(aisFile, volFile string) (*recovery.Executable, error) {
	src, err := os.ReadFile(aisFile)
	if err != nil {
		return nil, err
	}
	prog, err := ais.Assemble(string(src))
	if err != nil {
		return nil, err
	}
	var tab ais.VolumeTable
	if volFile != "" {
		vsrc, err := os.ReadFile(volFile)
		if err != nil {
			return nil, err
		}
		if tab, err = ais.ParseVolumeTable(string(vsrc)); err != nil {
			return nil, err
		}
	}
	return &recovery.Executable{Name: aisFile, Prog: prog, Machine: func(acfg aquacore.Config) (*aquacore.Machine, error) {
		m := aquacore.New(acfg, nil, nil)
		m.SetVolumeTable(tab)
		return m, nil
	}}, nil
}

// finish renders a recovered outcome and maps its status to an exit code.
func finish(out *recovery.Outcome, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "recovery: %s\n", out.Summary())
	report(stdout, out.Result)
	switch out.Status {
	case recovery.Completed:
		return exitCompleted
	case recovery.CompletedDegraded:
		return exitDegraded
	default:
		fmt.Fprintln(stderr, "fluidvm:", out.Err)
		// Budget/deadline/cancellation stops get their own exit code so
		// scripts can tell a bounded stop from a genuine abort. errors.Is
		// sees the typed cause through the ErrAborted wrap.
		if budget.IsStop(out.Err) {
			return exitCancelled
		}
		return exitAborted
	}
}

func report(w io.Writer, res *aquacore.Result) {
	fmt.Fprintf(w, "executed %d wet + %d dry instructions\n", res.WetInstrs, res.DryInstrs)
	fmt.Fprintf(w, "fluidic time %.1f s, electronic time %.3g s\n", res.WetSeconds, res.DrySeconds)
	if res.Clean() {
		fmt.Fprintln(w, "no underflow/overflow/ran-out events")
	} else {
		fmt.Fprintf(w, "%d volume events:\n", len(res.Events))
		for _, e := range res.Events {
			fmt.Fprintln(w, " ", e)
		}
	}
	if res.VolumeDrift != nil {
		fmt.Fprintf(w, "injected-fault loss %.4g nl; expected-vs-actual drift:\n", res.FaultLoss())
		names := make([]string, 0, len(res.VolumeDrift))
		for name := range res.VolumeDrift {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if d := res.VolumeDrift[name]; d != 0 {
				fmt.Fprintf(w, "  %s %+.4g nl\n", name, d)
			}
		}
	}
	if len(res.Dry) > 0 {
		fmt.Fprintln(w, "sensed/dry values:")
		keys := make([]string, 0, len(res.Dry))
		for k := range res.Dry {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %s = %.4g\n", k, res.Dry[k])
		}
	}
	for _, o := range res.Outputs {
		fmt.Fprintf(w, "output %s: %.3f nl\n", o.Port, o.Volume)
	}
}

// traceTo renders one executed instruction as a stderr line:
//
//	step 4 pc 4: move-abs mixer1, s1, 300 | s1 100→70 mixer1 0→30
func traceTo(w io.Writer) func(aquacore.TraceEntry) {
	return func(e aquacore.TraceEntry) {
		fmt.Fprintf(w, "step %d pc %d: %s", e.Step, e.PC, e.Instr)
		for i, d := range e.Vessels {
			if i == 0 {
				fmt.Fprint(w, " |")
			}
			fmt.Fprintf(w, " %s %.4g→%.4g", d.Name, d.Pre, d.Post)
		}
		fmt.Fprintln(w)
	}
}

// eventTo streams each recorded machine event — faults, repairs,
// replans — to stderr as it happens, interleaved with the instruction
// trace.
func eventTo(w io.Writer) func(aquacore.Event) {
	return func(e aquacore.Event) {
		fmt.Fprintln(w, "event:", e)
	}
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "fluidvm:", err)
	return exitError
}
