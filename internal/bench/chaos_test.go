package bench

import (
	"errors"
	"path/filepath"
	"testing"

	"aquavol/internal/assays"
	"aquavol/internal/budget"
	"aquavol/internal/faults"
	recovery "aquavol/internal/recover"
	"aquavol/internal/vfs"
)

// The chaos driver's verdict for each kind of blow, on one run: glucose
// under the moderate profile, seed 7, a snapshot every 4 boundaries.
func TestStrikeVerdicts(t *testing.T) {
	ca, err := compileForRun("glucose", assays.GlucoseSource, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := faults.Preset("moderate")
	run := chaosRun{ca: ca, p: p, seed: 7, opts: recovery.Options{SnapshotEvery: 4}}
	dir := t.TempDir()
	ref, err := run.reference(filepath.Join(dir, "ref.aqj"))
	if err != nil {
		t.Fatal(err)
	}
	everyTwo := run
	everyTwo.opts.SnapshotEvery = 2

	for _, tc := range []struct {
		name  string
		run   chaosRun
		blow  blow
		cause error // what the struck run's abort wraps; nil when it did not abort
		want  verdict
	}{
		{"kill after boundary 0", run, blow{kill: faults.CrashAt(0)},
			faults.ErrCrash, verdict{identical: true}},
		{"cancel after 1 work unit", run, blow{cancel: 1},
			budget.ErrCancelled, verdict{identical: true}},
		// Every write and sync of the begin record refuses the run before
		// its first instruction (strike fails the test if anything past
		// that record was journaled). Each record is one write and one
		// sync: write 1 and sync 1 are the begin record's, write 0 and
		// sync 0 the header's.
		{"write@1", run, blow{io: &vfs.Strike{Op: vfs.OpWrite, N: 1}},
			nil, verdict{refused: true}},
		{"write@1:short", run, blow{io: &vfs.Strike{Op: vfs.OpWrite, N: 1, Short: true}},
			nil, verdict{refused: true}},
		{"sync@1", run, blow{io: &vfs.Strike{Op: vfs.OpSync, N: 1}},
			nil, verdict{refused: true}},
		{"sync@1:lying", run, blow{io: &vfs.Strike{Op: vfs.OpSync, N: 1, Lying: true}},
			nil, verdict{refused: true}},
		// The first snapshot's frame never lands, whole: the salvage
		// finds only the begin record, and the resume restarts.
		{"write@2", run, blow{io: &vfs.Strike{Op: vfs.OpWrite, N: 2}},
			vfs.ErrIO, verdict{restarted: true, identical: true}},
		{"write@2:short", run, blow{io: &vfs.Strike{Op: vfs.OpWrite, N: 2, Short: true}},
			vfs.ErrNoSpace, verdict{restarted: true, identical: true}},
		// The record after it fails: the resume continues from the first
		// snapshot.
		{"write@3", run, blow{io: &vfs.Strike{Op: vfs.OpWrite, N: 3}},
			vfs.ErrIO, verdict{identical: true}},
		// Creation is atomic: a torn or dropped header never reaches the
		// journal's path (strike fails the test if one does).
		{"write@0:short", run, blow{io: &vfs.Strike{Op: vfs.OpWrite, N: 0, Short: true}},
			nil, verdict{refused: true}},
		{"sync@0:lying", run, blow{io: &vfs.Strike{Op: vfs.OpSync, N: 0, Lying: true}},
			nil, verdict{refused: true}},
		{"create@0", run, blow{io: &vfs.Strike{Op: vfs.OpCreate}},
			nil, verdict{refused: true}},
		{"poisoned newest snapshot", everyTwo, blow{kill: faults.CrashAt(9), damage: poisonNewestSnapshot},
			faults.ErrCrash, verdict{skipped: 1, identical: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := tc.run.strike(filepath.Join(dir, "strike.aqj"), tc.blow, ref.fp)
			if err != nil {
				t.Fatal(err)
			}
			if (v.cause == nil) != (tc.cause == nil) || !errors.Is(v.cause, tc.cause) {
				t.Errorf("abort cause %v, want one wrapping %v", v.cause, tc.cause)
			}
			got := *v
			got.cause = nil
			if got != tc.want {
				t.Errorf("verdict %+v, want %+v", got, tc.want)
			}
		})
	}
}
