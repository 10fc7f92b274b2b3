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
// strike reruns it with one interruption, resumes from the journal it
// left, and returns a verdict. Both go through fluidvm's own journaled
// run (recovery.Start and recovery.Resume), so every journal opens with
// a begin record and every resume passes the listing-hash and
// certificate-hash checks. Each matrix keeps its checks as predicates
// on the verdict.

// chaosRun describes the journaled run a matrix strikes.
type chaosRun struct {
	ca   *compiledAssay
	p    faults.Profile
	seed int64
	opts recovery.Options
}

// machines records the machines a run builds: how many, and the last.
type machines struct {
	built int
	last  *aquacore.Machine
}

// executable is what r runs, its machine constructor recording into ms.
func (r chaosRun) executable(ms *machines) *recovery.Executable {
	x := r.ca.Executable(r.ca.name)
	machine := x.Machine
	x.Machine = func(acfg aquacore.Config) (*aquacore.Machine, error) {
		m, err := machine(acfg)
		ms.built, ms.last = ms.built+1, m
		return m, err
	}
	return x
}

// start runs r with opts journaled at path on fsys, its machine bounded
// by meter (nil for none).
func (r chaosRun) start(fsys vfs.FS, path string, opts recovery.Options, meter *budget.Meter, ms *machines) (*recovery.Outcome, error) {
	return recovery.Start(fsys, path, false, r.executable(ms), r.p, r.seed, r.ca.margin, aquacore.Config{Budget: meter}, opts)
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
	meter := budget.New(0)
	var ms machines
	out, err := r.start(fsys, path, r.opts, meter, &ms)
	switch {
	case out == nil:
		return nil, err
	case err != nil:
		return nil, fmt.Errorf("closing reference journal: %w", err)
	case out.Status == recovery.Aborted:
		return nil, fmt.Errorf("reference run aborted: %w", out.Err)
	}
	ref := &chaosRef{sites: fsys.Counts(), work: meter.Used()}
	if ref.fp, err = machineFP(ms.last); err != nil {
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
			// Begin/transfer/recovery/replan/outcome records count neither.
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
	// refused: the journal's creation or its begin record failed, so the
	// run never started.
	refused bool
	// cause is the struck run's abort error; nil when it finished, in
	// which case nothing was salvaged.
	cause error
	// outcome: the resume refused the salvaged journal because it ends
	// with an outcome record.
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

// strike reruns r at path with one blow and resumes from the journal it
// left with recovery.Resume, as `fluidvm -resume` does. want is the
// reference fingerprint.
func (r chaosRun) strike(path string, b blow, want string) (*verdict, error) {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	var strikes []vfs.Strike
	if b.io != nil {
		strikes = append(strikes, *b.io)
	}
	opts := r.opts
	opts.Crash = b.kill
	var meter *budget.Meter
	if b.cancel > 0 {
		meter = budget.New(0).CancelAfter(b.cancel)
	}
	var ms machines
	// A failed close after the run is no verdict: the close may be the
	// struck site, and an interrupted journal ends where the blow left it.
	out, _ := r.start(vfs.NewFaulty(vfs.OS{}, strikes, nil), path, opts, meter, &ms)
	if out == nil {
		// The reference built the same machine, so the blow struck the
		// journal's creation or its begin record, and the run stopped
		// before its first instruction. Creation is atomic, and nothing
		// is appended after a failed begin record: path holds nothing,
		// or an intact header with at most a torn or complete begin
		// record.
		recs, tail, err := journal.Recover(vfs.OS{}, path)
		switch {
		case errors.Is(err, os.ErrNotExist):
		case err != nil:
			return nil, fmt.Errorf("reading the refused run's journal: %w", err)
		case tail.GoodBytes < journal.HeaderSize || len(recs) > 1:
			return nil, fmt.Errorf("refused run left %d good bytes and %d records at %s", tail.GoodBytes, len(recs), path)
		}
		return &verdict{refused: true}, nil
	}
	v := &verdict{}
	if out.Status != recovery.Aborted {
		got, err := machineFP(ms.last)
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
	ms = machines{}
	rebuild := func(*journal.Begin) (*recovery.Executable, error) { return r.executable(&ms), nil }
	out, used, err := recovery.Resume(vfs.OS{}, path, aquacore.Config{}, r.opts, rebuild, nil)
	if errors.Is(err, recovery.ErrClosed) {
		v.outcome = true
		return v, nil
	}
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	// The ladder builds one machine per rung it tries, and one more when
	// it restarts.
	v.restarted, v.skipped = used == nil, ms.built-1
	got, err := machineFP(ms.last)
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
