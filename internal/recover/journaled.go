package recovery

import (
	"errors"
	"fmt"
	"hash/crc32"

	"aquavol/internal/ais"
	"aquavol/internal/aquacore"
	"aquavol/internal/certify"
	"aquavol/internal/faults"
	"aquavol/internal/journal"
	"aquavol/internal/vfs"
)

// A journaled run is written once, here: Start opens the journal with a
// begin record and runs; Resume salvages the journal, rebuilds the run
// from that record and continues it from the newest usable snapshot.
// The begin record is the run's configuration — fault profile and seed,
// safety margin, separation yield, retry budget, snapshot cadence and
// replanning — and both halves derive the machine config and Options
// from it, so a resumed run is configured exactly as the one it
// continues.

// Executable is what a journaled run executes: the program name its
// begin record carries, the listing, the compile-time artifacts repair
// needs (nil for a shipped listing, which recovers by retries only),
// the certified static plan's hash (0 when there is none), and a
// constructor of fresh machines over the compiled plan.
type Executable struct {
	Name     string
	Prog     *ais.Program
	Compiled *Compiled
	CertHash uint32
	Machine  func(aquacore.Config) (*aquacore.Machine, error)
}

// Resume's refusals of a journal it cannot continue.
var (
	// ErrNoBegin: the salvaged journal does not open with a begin record.
	ErrNoBegin = errors.New("journal does not start with a begin record")
	// ErrClosed: the journal ends with an outcome record, so the run
	// already reached a terminal state.
	ErrClosed = errors.New("journal is already closed")
	// ErrOtherProgram: the rebuilt listing does not hash-match the
	// journaled one.
	ErrOtherProgram = errors.New("journal was recorded for a different program")
)

// Start runs x journaled at path. It creates the journal (journal.Create,
// refusing a non-empty file unless force), appends the begin record —
// x's identity, fault profile p and seed, margin, acfg's separation
// yield, and opts' retry budget, snapshot cadence and replanning — and
// runs x under the machine config and Options that record gives, as
// Resume rebuilds them. acfg's trace callbacks and meter, and opts'
// NoCertify, Crash and repair switches, are the unjournaled rest.
//
// The machine is built before the journal is created, so a run that
// cannot start leaves no journal behind, and the first instruction runs
// only after the begin record is durable. A nil Outcome means the run
// never started, and err says why; with a non-nil Outcome, err reports
// a failure to close the journal after the run.
func Start(fsys vfs.FS, path string, force bool, x *Executable, p faults.Profile, seed int64, margin float64,
	acfg aquacore.Config, opts Options) (*Outcome, error) {
	b := &journal.Begin{
		Program: x.Name,
		Hash:    listingHash(x.Prog),
		Instrs:  len(x.Prog.Instrs),
		Profile: p, Seed: seed,
		Margin: margin, Yield: acfg.SeparationYield,
		Retries: opts.RetriesPerInstr, SnapshotEvery: opts.SnapshotEvery,
		Replan:   opts.EnableReplan,
		CertHash: x.CertHash,
	}
	m, err := x.Fresh(p, seed, acfg)
	if err != nil {
		return nil, err
	}
	jw, f, err := journal.Create(fsys, path, force)
	if err != nil {
		return nil, err
	}
	if err := jw.Append(&journal.Record{Kind: journal.KindBegin, Begin: b}); err != nil {
		f.Close() //fluidvet:allow syncerr the refused run never started; the append failure being returned supersedes any close error
		return nil, err
	}
	opts.Journal = jw
	return Run(m, x.Prog, x.Compiled, opts), f.Close()
}

// Resume continues the journaled run at path, appending to it. It
// salvages the journal (journal.OpenAppend truncates a bad tail),
// refuses one that does not open with a begin record (ErrNoBegin) or
// that already holds an outcome record (ErrClosed), and rebuilds the
// run with rebuild, which is handed the begin record. The rebuilt
// listing must match the journaled hash and instruction count
// (ErrOtherProgram), and unless opts.NoCertify its certificate hash the
// journaled one (certify.ErrHash). The run then continues from the
// newest usable snapshot down the ResumeFallback ladder, or restarts
// when the journal holds none. acfg and opts carry only the unjournaled
// wiring, as for Start; rebuild's errors come back unwrapped.
//
// note, when non-nil, receives one line per notice, each before
// execution starts: a truncated tail, a restart for want of a
// snapshot, and the ladder's rungs. The returned snapshot is the rung
// the run continued from, nil when it restarted. A nil Outcome means
// the resume was refused; with a non-nil Outcome, err reports a failure
// to close the journal after the run.
func Resume(fsys vfs.FS, path string, acfg aquacore.Config, opts Options,
	rebuild func(*journal.Begin) (*Executable, error), note func(string)) (_ *Outcome, _ *journal.Snapshot, err error) {
	recs, tail, jw, f, err := journal.OpenAppend(fsys, path)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if tail.Truncated {
		say(note, "recovered journal tail: %s (kept %d good bytes)", tail.Reason, tail.GoodBytes)
	}
	if recs[0].Kind != journal.KindBegin {
		return nil, nil, ErrNoBegin
	}
	b := recs[0].Begin
	if last := recs[len(recs)-1]; last.Kind == journal.KindOutcome {
		return nil, nil, fmt.Errorf("%w: run %s after %d boundaries", ErrClosed, last.Outcome.Status, last.Outcome.Boundaries)
	}
	x, err := rebuild(b)
	if err != nil {
		return nil, nil, err
	}
	if h := listingHash(x.Prog); h != b.Hash || len(x.Prog.Instrs) != b.Instrs {
		return nil, nil, fmt.Errorf("%w (journaled %08x/%d instrs, recompiled %08x/%d)",
			ErrOtherProgram, b.Hash, b.Instrs, h, len(x.Prog.Instrs))
	}
	// The re-derived (and freshly re-certified) plan must hash to exactly
	// what the original run certified: otherwise the journal would replay
	// volumes from a plan nobody certified. Refusing here touches no
	// machine and leaves no outcome record.
	if !opts.NoCertify && b.CertHash != 0 {
		if err := certify.VerifyHash(x.CertHash, b.CertHash); err != nil {
			return nil, nil, err
		}
	}
	opts.RetriesPerInstr, opts.SnapshotEvery, opts.EnableReplan = b.Retries, b.SnapshotEvery, b.Replan
	opts.Journal = jw
	snaps := Snapshots(recs)
	if len(snaps) == 0 {
		// Death before the first snapshot frame landed: the resume is a
		// fresh deterministic run.
		say(note, "no snapshot in journal; restarting from the beginning")
	}
	acfg.SeparationYield = b.Yield
	newMachine := func() (*aquacore.Machine, error) { return x.Fresh(b.Profile, b.Seed, acfg) }
	return ResumeFallback(newMachine, x.Prog, x.Compiled, opts, snaps, note)
}

// Fresh builds a fresh machine for x under acfg, with a fresh fault
// injector drawn from profile p and seed when p injects anything.
func (x *Executable) Fresh(p faults.Profile, seed int64, acfg aquacore.Config) (*aquacore.Machine, error) {
	acfg.Faults = nil
	if p.Enabled() {
		acfg.Faults = faults.New(p, seed)
	}
	return x.Machine(acfg)
}

// listingHash is the IEEE CRC32 of a listing's canonical text, which
// the begin record pins.
func listingHash(prog *ais.Program) uint32 { return crc32.ChecksumIEEE([]byte(prog.String())) }
