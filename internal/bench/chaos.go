package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"aquavol/internal/aquacore"
	"aquavol/internal/budget"
	"aquavol/internal/faults"
	"aquavol/internal/journal"
	recovery "aquavol/internal/recover"
	"aquavol/internal/vfs"
)

// The journal chaos matrices — E12's kill at every boundary, E13's kill
// at the first replan, E14's fault at every journal I/O site, E15's
// cancel at a sweep of instruction boundaries — are loops over one
// driver: reference runs an assay journaled and uninterrupted, and
// strike reruns it with one interruption, salvages the journal the way
// `fluidvm -resume` does, resumes, and returns a verdict. Each matrix
// keeps its checks as predicates on the verdict.

// chaosRun describes the journaled run a matrix strikes.
type chaosRun struct {
	ca   *compiledAssay
	p    faults.Profile
	seed int64
	opts recovery.Options
}

// chaosRef is what the uninterrupted reference run leaves behind.
type chaosRef struct {
	// fp fingerprints the final machine state.
	fp string
	// boundaries and snapshots count the journal's step and snapshot
	// records; bytes is its size on disk.
	boundaries, snapshots int
	bytes                 int64
	// sites counts the run's journal I/O operations by class: the sites
	// a storage strike can hit.
	sites map[vfs.Op]uint64
	// work is the number of work units the run charged.
	work int64
}

// reference runs r journaled at path, uninterrupted, on a counting
// filesystem and an unlimited counting meter.
func (r chaosRun) reference(path string) (*chaosRef, error) {
	fsys := vfs.NewFaulty(vfs.OS{}, nil, nil)
	jw, f, err := journal.Create(fsys, path, true)
	if err != nil {
		return nil, err
	}
	opts := r.opts
	opts.Journal = jw
	meter := budget.New(0)
	out, m, err := r.ca.runRecovered(r.p, r.seed, opts, meter)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("closing reference journal: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	if out.Status == recovery.Aborted {
		return nil, fmt.Errorf("reference run aborted: %w", out.Err)
	}
	ref := &chaosRef{sites: fsys.Counts(), work: meter.Used()}
	if ref.fp, err = machineFP(m); err != nil {
		return nil, err
	}
	recs, _, err := journal.Recover(vfs.OS{}, path)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		switch rec.Kind {
		case journal.KindStep:
			ref.boundaries++
		case journal.KindSnapshot:
			ref.snapshots++
		default:
			// Transfer/recovery/replan/outcome records count neither.
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	ref.bytes = st.Size()
	return ref, nil
}

// blow is the one interruption a struck run takes: a kill after a
// boundary, a budget cancelled after some work units, or a fault at one
// journal I/O site. damage, when set, then rewrites the journal the
// interrupted run left, before salvage.
type blow struct {
	kill   *faults.CrashPoint
	cancel int64
	io     *vfs.Strike
	damage func([]byte) ([]byte, error)
}

// verdict is how a struck run ended.
type verdict struct {
	// refused: journal creation failed, so the run never started.
	refused bool
	// cause is the struck run's abort error; nil when it finished, in
	// which case nothing was salvaged.
	cause error
	// outcome: the salvaged journal holds an outcome record.
	outcome bool
	// skipped counts the newer snapshots the resume ladder could not use.
	skipped int
	// restarted: the resume ran from the beginning, with no snapshot.
	restarted bool
	// identical: the final machine state — the struck run's when it
	// finished, the resume's otherwise — matches the reference's, and
	// the resume did not abort.
	identical bool
}

// strike reruns r at path with one blow, salvages what it left with
// journal.OpenAppend and resumes with recovery.ResumeFallback appending
// to the salvaged journal — the two calls `fluidvm -resume` makes. A
// journal in which no record survived restarts on a fresh one. want is
// the reference fingerprint.
func (r chaosRun) strike(path string, b blow, want string) (*verdict, error) {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	var strikes []vfs.Strike
	if b.io != nil {
		strikes = append(strikes, *b.io)
	}
	jw, f, err := journal.Create(vfs.NewFaulty(vfs.OS{}, strikes, nil), path, false)
	if err != nil {
		// Creation is atomic: path holds nothing or a complete empty
		// journal (the strike hit after the rename), never a half-written
		// header.
		if st, serr := os.Stat(path); serr == nil && st.Size() != 0 && st.Size() != journal.HeaderSize {
			return nil, fmt.Errorf("failed creation left %d bytes at %s", st.Size(), path)
		}
		return &verdict{refused: true}, nil
	}
	opts := r.opts
	opts.Journal, opts.Crash = jw, b.kill
	var meter *budget.Meter
	if b.cancel > 0 {
		meter = budget.New(0).CancelAfter(b.cancel)
	}
	out, m, err := r.ca.runRecovered(r.p, r.seed, opts, meter)
	// The close may be the struck site, and an interrupted journal ends
	// where the blow left it; closing changes nothing either way.
	f.Close() //fluidvet:allow syncerr the struck journal is crash evidence; every append was already fsynced
	if err != nil {
		return nil, err
	}
	v := &verdict{}
	if out.Status != recovery.Aborted {
		got, err := machineFP(m)
		v.identical = got == want
		return v, err
	}
	v.cause = out.Err

	if b.damage != nil {
		blob, err := os.ReadFile(path)
		if err == nil {
			blob, err = b.damage(blob)
		}
		if err == nil {
			err = os.WriteFile(path, blob, 0o644)
		}
		if err != nil {
			return nil, fmt.Errorf("damaging the journal: %w", err)
		}
	}
	recs, _, jw, f, err := journal.OpenAppend(vfs.OS{}, path)
	if errors.Is(err, journal.ErrTornWrite) || errors.Is(err, journal.ErrCorrupt) {
		// No record survived: restart on a fresh journal.
		jw, f, err = journal.Create(vfs.OS{}, path, true)
	}
	if err != nil {
		return nil, fmt.Errorf("salvaging the journal: %w", err)
	}
	for _, rec := range recs {
		v.outcome = v.outcome || rec.Kind == journal.KindOutcome
	}
	snaps := recovery.Snapshots(recs)
	opts = r.opts
	opts.Journal = jw
	var resumed *aquacore.Machine
	out, used, err := recovery.ResumeFallback(
		func() (*aquacore.Machine, error) {
			m, err := r.ca.Machine(runConfig(r.p, r.seed, nil))
			resumed = m
			return m, err
		},
		r.ca.Prog, r.ca.Compiled(), opts, snaps, nil)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("closing the resumed journal: %w", cerr)
	}
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	v.restarted = used == nil
	v.skipped = len(snaps)
	for i, s := range snaps {
		if s == used {
			v.skipped = len(snaps) - 1 - i
		}
	}
	got, err := machineFP(resumed)
	v.identical = out.Status != recovery.Aborted && got == want
	return v, err
}

// resumedNewest is what E12, E13 and E15 demand of a struck run: it
// aborted, and the resume restored the newest snapshot, skipping no
// rung and not restarting. It takes strike's results, passing its error
// through, and reports whether the final state was identical.
func resumedNewest(v *verdict, err error) (bool, error) {
	switch {
	case err != nil:
		return false, err
	case v.refused:
		return false, errors.New("journal creation refused")
	case v.cause == nil:
		return false, errors.New("struck run finished")
	case v.restarted:
		return false, errors.New("no snapshot survived; the resume restarted")
	case v.skipped > 0:
		return false, fmt.Errorf("resume skipped %d snapshots", v.skipped)
	}
	return v.identical, nil
}

// machineFP fingerprints a machine's complete state: JSON sorts map keys
// and round-trips float64 exactly, so state equality is byte equality.
func machineFP(m *aquacore.Machine) (string, error) {
	b, err := json.Marshal(m.Snapshot())
	return string(b), err
}

// poisonNewestSnapshot rewrites a journal with its newest snapshot's
// machine state dropped. Every frame CRC stays valid: the damage is
// semantic, and only the resume ladder can see it.
func poisonNewestSnapshot(b []byte) ([]byte, error) {
	recs, err := journal.ReadAll(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	snaps := recovery.Snapshots(recs)
	if len(snaps) < 2 {
		return nil, fmt.Errorf("journal has %d snapshots, too few for a ladder", len(snaps))
	}
	snaps[len(snaps)-1].Machine = nil
	var buf bytes.Buffer
	w, err := journal.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}
