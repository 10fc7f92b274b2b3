package recovery

import (
	"fmt"

	"aquavol/internal/ais"
	"aquavol/internal/aquacore"
	"aquavol/internal/journal"
)

// Snapshots collects a recovered journal's snapshot records in append
// order (oldest first). The last element is the newest snapshot — the
// one a resume tries first.
func Snapshots(recs []*journal.Record) []*journal.Snapshot {
	var snaps []*journal.Snapshot
	for _, r := range recs {
		if r.Kind == journal.KindSnapshot && r.Snapshot != nil {
			snaps = append(snaps, r.Snapshot)
		}
	}
	return snaps
}

// ResumeFallback continues a journaled run from the newest usable
// snapshot: it restores that rung's machine state and recovery counters
// onto a fresh machine and re-enters the loop at the snapshot's (pc,
// boundary). It walks the ladder toward older snapshots when one turns
// out to be unrestorable (CRC-valid frame, poisoned contents: an
// out-of-range pc, a vanished vessel table, an impossible PRNG position
// — everything snapshot validation refuses). Determinism makes every
// rung equivalent: resuming from an older snapshot just replays more
// boundaries and lands on the bit-identical result, the same as a run
// that was never interrupted. The bottom rung is a fresh run from the
// beginning, so the ladder fails only when no machine can be built at
// all. opts.Journal, when set, should append to the recovered journal,
// as Resume's does.
//
// newMachine must construct a fresh machine per attempt (Restore demands
// one that has executed nothing). note, when non-nil, receives one
// diagnostic line per rejected rung plus the chosen rung's announcement,
// each emitted before execution starts. The returned snapshot is the
// rung that worked — nil when the run restarted from the beginning.
func ResumeFallback(newMachine func() (*aquacore.Machine, error), prog *ais.Program, c *Compiled,
	opts Options, snaps []*journal.Snapshot, note func(string)) (*Outcome, *journal.Snapshot, error) {
	for i := len(snaps) - 1; i >= 0; i-- {
		snap := snaps[i]
		m, err := newMachine()
		if err != nil {
			return nil, nil, fmt.Errorf("recovery: building machine for resume: %w", err)
		}
		out, err := prepareResume(m, prog, snap)
		if err != nil {
			say(note, "snapshot at boundary %d (pc %d) unusable: %v", snap.Boundary, snap.PC, err)
			continue
		}
		say(note, "resuming at boundary %d (pc %d)", snap.Boundary, snap.PC)
		return run(m, prog, c, opts.withDefaults(), snap.PC, snap.Boundary, out), snap, nil
	}
	m, err := newMachine()
	if err != nil {
		return nil, nil, fmt.Errorf("recovery: building machine for restart: %w", err)
	}
	if len(snaps) > 0 {
		say(note, "no usable snapshot among %d; restarting from the beginning", len(snaps))
	}
	return Run(m, prog, c, opts), nil, nil
}

// say formats one resume notice for note, which may be nil.
func say(note func(string), format string, a ...any) {
	if note != nil {
		note(fmt.Sprintf(format, a...))
	}
}
