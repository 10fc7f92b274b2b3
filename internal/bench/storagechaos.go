package bench

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/faults"
	"aquavol/internal/journal"
	recovery "aquavol/internal/recover"
	"aquavol/internal/vfs"
)

// StorageChaosCell is one assay × seed of the storage-fault matrix
// (E14). Every write/sync/create/rename/close/syncdir site of the
// reference run's journal I/O receives one injected fault in turn, and
// every struck run must land in the trichotomy: clean completion, no
// journal at all (creation refused, loudly), or abort with a salvageable
// journal prefix from which a resume reproduces the reference state bit
// for bit. All counts are deterministic in (assay, seed).
type StorageChaosCell struct {
	Assay string `json:"assay"`
	Seed  int64  `json:"seed"`
	// WriteSites/SyncSites/OtherSites are the fault-site counts the
	// reference run enumerated per op class.
	WriteSites int `json:"writeSites"`
	SyncSites  int `json:"syncSites"`
	OtherSites int `json:"otherSites"`
	// Strikes is the total number of injected-fault runs (write sites get
	// an EIO and a short-write variant, sync sites an EIO and a lying
	// variant).
	Strikes int `json:"strikes"`
	// The trichotomy. Clean + NoJournal + Resumed == Strikes when the
	// cell passed.
	Clean     int `json:"clean"`
	NoJournal int `json:"noJournal"`
	Resumed   int `json:"resumed"`
	// FallbackSkipped is how many poisoned rungs the snapshot-fallback
	// ladder case skipped (the newest snapshot is rewritten with a valid
	// CRC but no machine state); FallbackOK reports that the ladder then
	// reproduced the reference state from an earlier snapshot.
	FallbackSkipped int  `json:"fallbackSkipped"`
	FallbackOK      bool `json:"fallbackOK"`
	// EnospcResumeOK reports the disk-full scenario: a sticky ENOSPC
	// mid-run aborts the journaled run, and after "freeing space" (a
	// healthy filesystem) the resume finishes bit-identical.
	EnospcResumeOK bool `json:"enospcResumeOK"`
}

// StorageChaosReport is the machine-readable E14 result. The cells are
// deterministic; the appends/sec figures are wall-clock measurements and
// vary run to run (they are reported in JSON only, never in the table).
type StorageChaosReport struct {
	Experiment    string             `json:"experiment"`
	SnapshotEvery int                `json:"snapshotEvery"`
	Seed          int64              `json:"seed"`
	Cells         []StorageChaosCell `json:"cells"`
	// AppendsPerSecRaw is journal append throughput writing straight to
	// an *os.File; AppendsPerSecVFS goes through the vfs indirection.
	// OverheadPct is the relative cost of the seam.
	AppendsPerSecRaw float64 `json:"appendsPerSecRaw"`
	AppendsPerSecVFS float64 `json:"appendsPerSecVFS"`
	OverheadPct      float64 `json:"overheadPct"`
}

// storageChaosSeed fixes the matrix; like E12 the whole experiment is
// reproducible (and the ci gate runs it twice and diffs the output).
const storageChaosSeed = 7

// storageChaosEvery is E14's snapshot cadence.
const storageChaosEvery = 4

// chaos classification outcomes.
const (
	chaosClean     = "clean"
	chaosNoJournal = "nojournal"
	chaosResumed   = "resumed"
)

// StorageChaosOutcomes runs the E14 matrix over the glucose (static
// plan) and glycomics (staged, measurement-driven) assays.
func StorageChaosOutcomes() ([]StorageChaosCell, error) {
	dir, err := os.MkdirTemp("", "aquavol-storage-chaos")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	specs := []struct{ name, src string }{
		{"glucose", assays.GlucoseSource},
		{"glycomics", assays.GlycomicsSource},
	}
	var cells []StorageChaosCell
	for _, spec := range specs {
		ca, err := compileForRun(spec.name, spec.src, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		cell, err := storageChaosCell(ca, storageChaosSeed, dir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		cells = append(cells, *cell)
	}
	return cells, nil
}

func storageChaosCell(ca *compiledAssay, seed int64, dir string) (*StorageChaosCell, error) {
	p, _ := faults.Preset("moderate")
	opts := recovery.Options{SnapshotEvery: storageChaosEvery}
	cell := &StorageChaosCell{Assay: ca.name, Seed: seed}

	// Reference: a journaled run on a counting (fault-free) Faulty FS
	// fixes the expected final state and enumerates every I/O site.
	counter := vfs.NewFaulty(vfs.OS{}, nil, nil)
	refPath := filepath.Join(dir, ca.name+"-ref.aqj")
	jw, f, err := journal.Create(counter, refPath, true)
	if err != nil {
		return nil, err
	}
	refOpts := opts
	refOpts.Journal = jw
	refOut, refM, err := ca.runRecovered(p, seed, refOpts)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if refOut.Status == recovery.Aborted {
		return nil, fmt.Errorf("reference run aborted: %w", refOut.Err)
	}
	want, err := machineFP(refM)
	if err != nil {
		return nil, err
	}
	boundaries := 0
	if recs, _, err := journal.Recover(vfs.OS{}, refPath); err == nil {
		for _, r := range recs {
			if r.Kind == journal.KindStep {
				boundaries++
			}
		}
	}

	// One strike per site: EIO everywhere, plus the op-specific horrors
	// (short writes tear frames, lying fsyncs drop synced-looking bytes).
	counts := counter.Counts()
	var strikes []vfs.Strike
	for n := uint64(0); n < counts[vfs.OpWrite]; n++ {
		strikes = append(strikes,
			vfs.Strike{Op: vfs.OpWrite, N: n},
			vfs.Strike{Op: vfs.OpWrite, N: n, Short: true})
	}
	for n := uint64(0); n < counts[vfs.OpSync]; n++ {
		strikes = append(strikes,
			vfs.Strike{Op: vfs.OpSync, N: n},
			vfs.Strike{Op: vfs.OpSync, N: n, Lying: true})
	}
	for _, op := range []vfs.Op{vfs.OpCreate, vfs.OpRename, vfs.OpSyncDir, vfs.OpClose} {
		for n := uint64(0); n < counts[op]; n++ {
			strikes = append(strikes, vfs.Strike{Op: op, N: n})
		}
	}
	cell.WriteSites = int(counts[vfs.OpWrite])
	cell.SyncSites = int(counts[vfs.OpSync])
	cell.OtherSites = int(counts[vfs.OpCreate] + counts[vfs.OpRename] + counts[vfs.OpSyncDir] + counts[vfs.OpClose])
	cell.Strikes = len(strikes)

	path := filepath.Join(dir, ca.name+"-strike.aqj")
	for _, strike := range strikes {
		class, err := ca.strikeOutcome(p, seed, opts, path, strike, want)
		if err != nil {
			return nil, fmt.Errorf("strike %s: %w", strike, err)
		}
		switch class {
		case chaosClean:
			cell.Clean++
		case chaosNoJournal:
			cell.NoJournal++
		case chaosResumed:
			cell.Resumed++
		}
	}

	// Disk-full scenario: the device fills mid-run and stays full; the
	// run fail-stops, space is freed (a healthy FS), and the resume
	// completes bit-identical.
	enospc := vfs.Strike{Op: vfs.OpWrite, N: counts[vfs.OpWrite] / 2, Err: vfs.ErrNoSpace, Sticky: true}
	class, err := ca.strikeOutcome(p, seed, opts, path, enospc, want)
	if err != nil {
		return nil, fmt.Errorf("sticky ENOSPC: %w", err)
	}
	cell.EnospcResumeOK = class == chaosResumed

	skipped, ok, err := ca.fallbackLadderCase(p, seed, opts, dir, boundaries, want)
	if err != nil {
		return nil, fmt.Errorf("fallback ladder: %w", err)
	}
	cell.FallbackSkipped, cell.FallbackOK = skipped, ok
	return cell, nil
}

// strikeOutcome runs one journaled execution with a single injected
// storage fault and classifies the result against the trichotomy,
// erroring on any fourth outcome (a silent divergence, an abort that
// does not wrap ErrAborted, an unsalvageable journal).
func (ca *compiledAssay) strikeOutcome(p faults.Profile, seed int64, opts recovery.Options,
	path string, strike vfs.Strike, want string) (string, error) {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return "", err
	}
	fsys := vfs.NewFaulty(vfs.OS{}, []vfs.Strike{strike}, nil)
	jw, f, err := journal.Create(fsys, path, false)
	if err != nil {
		// Creation failed loudly: the run never starts journaled. The
		// atomicity contract says path holds either nothing or a complete
		// empty journal (the strike hit after the rename) — never a
		// half-written header.
		if st, serr := os.Stat(path); serr == nil && st.Size() != 0 && st.Size() != journal.HeaderSize {
			return "", fmt.Errorf("failed creation left %d bytes at %s", st.Size(), path)
		}
		return chaosNoJournal, nil
	}
	ropts := opts
	ropts.Journal = jw
	out, m, err := ca.runRecovered(p, seed, ropts)
	if err != nil {
		return "", err
	}
	// A struck close fires here; the run itself has already finished, so
	// the error is reported but changes nothing.
	f.Close() //fluidvet:allow syncerr close is itself a strike site; every append was already fsynced

	if out.Status != recovery.Aborted {
		got, err := machineFP(m)
		if err != nil {
			return "", err
		}
		if got != want {
			return "", fmt.Errorf("non-aborted run diverged from reference")
		}
		return chaosClean, nil
	}
	if !errors.Is(out.Err, recovery.ErrAborted) {
		return "", fmt.Errorf("aborted outcome error does not wrap ErrAborted: %w", out.Err)
	}
	// The journal's good prefix must salvage on the now-healthy real
	// filesystem, and the resume must land on the reference state.
	recs, _, err := journal.Recover(vfs.OS{}, path)
	if err != nil {
		return "", fmt.Errorf("salvaging struck journal: %w", err)
	}
	var m2 *aquacore.Machine
	out2, _, err := recovery.ResumeFallback(
		func() (*aquacore.Machine, error) {
			mm, err := ca.Machine(runConfig(p, seed, nil))
			m2 = mm
			return mm, err
		},
		ca.Prog, ca.Compiled(), opts, recovery.Snapshots(recs), nil)
	if err != nil {
		return "", fmt.Errorf("resume after strike: %w", err)
	}
	if out2.Status == recovery.Aborted {
		return "", fmt.Errorf("resume after strike aborted: %w", out2.Err)
	}
	got, err := machineFP(m2)
	if err != nil {
		return "", err
	}
	if got != want {
		return "", fmt.Errorf("resumed state diverged from reference")
	}
	return chaosResumed, nil
}

// fallbackLadderCase exercises the snapshot ladder end to end on disk: a
// crashed journal's newest snapshot record is rewritten with a valid CRC
// but its machine state dropped — damage the frame checksum cannot see —
// and the resume must skip it, restore the previous snapshot, and still
// finish bit-identical.
func (ca *compiledAssay) fallbackLadderCase(p faults.Profile, seed int64, opts recovery.Options,
	dir string, boundaries int, want string) (skipped int, ok bool, err error) {
	path := filepath.Join(dir, ca.name+"-ladder.aqj")
	jw, f, err := journal.Create(vfs.OS{}, path, true)
	if err != nil {
		return 0, false, err
	}
	copts := opts
	copts.SnapshotEvery = 2
	copts.Journal = jw
	copts.Crash = faults.CrashAt(min(boundaries-1, 9))
	out, _, err := ca.runRecovered(p, seed, copts)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return 0, false, err
	}
	if out.Status != recovery.Aborted {
		return 0, false, fmt.Errorf("crash run finished with status %s", out.Status)
	}

	recs, _, err := journal.Recover(vfs.OS{}, path)
	if err != nil {
		return 0, false, err
	}
	last := -1
	for i, r := range recs {
		if r.Kind == journal.KindSnapshot {
			last = i
		}
	}
	if last < 0 || len(recovery.Snapshots(recs)) < 2 {
		return 0, false, fmt.Errorf("crash journal has too few snapshots for a ladder")
	}
	recs[last].Snapshot.Machine = nil

	// Rewrite the journal with the poisoned record: every frame CRC is
	// valid, the damage is semantic.
	jw2, f2, err := journal.Create(vfs.OS{}, path, true)
	if err != nil {
		return 0, false, err
	}
	for _, r := range recs {
		if err := jw2.Append(r); err != nil {
			f2.Close() //fluidvet:allow syncerr error path; the append failure being returned supersedes any close error
			return 0, false, err
		}
	}
	if err := f2.Close(); err != nil {
		return 0, false, err
	}

	// End-to-end resume: reopen for append, walk the ladder.
	recs2, _, w, f3, err := journal.OpenAppend(vfs.OS{}, path)
	if err != nil {
		return 0, false, err
	}
	ropts := opts
	ropts.SnapshotEvery = 2
	ropts.Journal = w
	snaps := recovery.Snapshots(recs2)
	var m *aquacore.Machine
	out2, used, err := recovery.ResumeFallback(
		func() (*aquacore.Machine, error) {
			mm, merr := ca.Machine(runConfig(p, seed, nil))
			m = mm
			return mm, merr
		},
		ca.Prog, ca.Compiled(), ropts, snaps,
		func(string) { skipped++ })
	if cerr := f3.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return skipped, false, err
	}
	// The chosen-rung announcement is a note too; only the rungs before
	// it were skipped.
	skipped--
	got, err := machineFP(m)
	if err != nil {
		return skipped, false, err
	}
	ok = used != nil && used == snaps[len(snaps)-2] && skipped == 1 &&
		out2.Status != recovery.Aborted && got == want
	return skipped, ok, nil
}

// journalOverhead measures append throughput with and without the vfs
// seam: the same record stream written through journal.Create(vfs.OS)
// versus a Writer handed the *os.File directly.
func journalOverhead(n int) (raw, viaVFS float64, err error) {
	dir, err := os.MkdirTemp("", "aquavol-journal-overhead")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	rec := &journal.Record{Kind: journal.KindStep, Step: &journal.Step{Boundary: 1, PC: 1, Next: 2, Draws: 3}}

	run := func(append func(*journal.Record) error) (float64, error) {
		start := time.Now() //fluidvet:allow determinism wall-clock timing is the benchmark's measurement, reported not replayed
		for i := 0; i < n; i++ {
			if err := append(rec); err != nil {
				return 0, err
			}
		}
		secs := time.Since(start).Seconds() //fluidvet:allow determinism wall-clock timing is the benchmark's measurement, reported not replayed
		if secs <= 0 {
			secs = 1e-9
		}
		return float64(n) / secs, nil
	}

	rawFile, err := os.Create(filepath.Join(dir, "raw.aqj"))
	if err != nil {
		return 0, 0, err
	}
	rawW, err := journal.NewWriter(rawFile)
	if err != nil {
		return 0, 0, err
	}
	raw, err = run(rawW.Append)
	if cerr := rawFile.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, err
	}

	vfsW, vfsFile, err := journal.Create(vfs.OS{}, filepath.Join(dir, "vfs.aqj"), false)
	if err != nil {
		return 0, 0, err
	}
	viaVFS, err = run(vfsW.Append)
	if cerr := vfsFile.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return raw, viaVFS, err
}

// StorageChaos runs E14 and renders the deterministic table plus the
// JSON report (which adds the wall-clock journaling-overhead figures).
func StorageChaos() (*Table, *StorageChaosReport, error) {
	cells, err := StorageChaosOutcomes()
	if err != nil {
		return nil, nil, err
	}
	report := &StorageChaosReport{
		Experiment:    "storage-chaos",
		SnapshotEvery: storageChaosEvery,
		Seed:          storageChaosSeed,
		Cells:         cells,
	}
	if raw, viaVFS, err := journalOverhead(400); err == nil && raw > 0 && viaVFS > 0 {
		report.AppendsPerSecRaw = raw
		report.AppendsPerSecVFS = viaVFS
		report.OverheadPct = 100 * (raw/viaVFS - 1)
	}

	verdict := func(ok bool) string {
		if ok {
			return "recovered"
		}
		return "FAILED"
	}
	t := &Table{
		ID:    "E14/StorageChaos",
		Title: "storage-fault matrix: one injected fault at every journal I/O site",
		Header: []string{"assay", "seed", "sites (w/s/other)", "strikes",
			"clean", "no journal", "resumed", "ENOSPC+resume", "snapshot fallback"},
	}
	for _, c := range cells {
		t.Rows = append(t.Rows, []string{
			c.Assay, fmt.Sprintf("%d", c.Seed),
			fmt.Sprintf("%d/%d/%d", c.WriteSites, c.SyncSites, c.OtherSites),
			fmt.Sprintf("%d", c.Strikes),
			fmt.Sprintf("%d", c.Clean),
			fmt.Sprintf("%d", c.NoJournal),
			fmt.Sprintf("%d", c.Resumed),
			verdict(c.EnospcResumeOK),
			fmt.Sprintf("%s (skipped %d)", verdict(c.FallbackOK), c.FallbackSkipped),
		})
	}
	t.Notes = append(t.Notes,
		"every write site is struck with EIO and a short write, every sync site with EIO and a lying fsync (reported failure + dropped unsynced bytes), every create/rename/close/syncdir site with EIO",
		"trichotomy: clean completion, refused journal creation (nothing half-made on disk), or fail-stop abort whose salvaged journal prefix resumes bit-identical to the reference",
		"ENOSPC+resume: a sticky device-full fault mid-run, then resume on a healthy filesystem",
		"snapshot fallback: the newest snapshot record is rewritten CRC-valid but without machine state; the resume ladder must skip it and restore the previous snapshot",
		fmt.Sprintf("snapshot cadence %d boundaries; fixed seed %d; the table is byte-reproducible (timing lives only in the JSON report)", storageChaosEvery, storageChaosSeed))
	return t, report, nil
}
