package journal_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"aquavol/internal/aquacore"
	"aquavol/internal/faults"
	"aquavol/internal/journal"
	"aquavol/internal/vfs"
)

// sampleRecords builds a representative record sequence: begin, a few
// steps, a snapshot with machine state, a transfer, a recovery action,
// and an outcome.
func sampleRecords() []*journal.Record {
	prof, _ := faults.Preset("moderate")
	return []*journal.Record{
		{Kind: journal.KindBegin, Begin: &journal.Begin{
			Program: "glucose", Hash: 0xdeadbeef, Instrs: 42,
			Profile: prof, Seed: 7, SnapshotEvery: 8,
		}},
		{Kind: journal.KindSnapshot, Snapshot: &journal.Snapshot{
			Boundary: 0, PC: 0,
			Machine: &aquacore.Snapshot{
				Vessels: map[string]aquacore.VesselState{
					"s1": {Volume: 100.25, Composition: map[string]float64{"stock": 100.25}},
				},
				Regs:  map[string]float64{"r1": 3},
				Known: []string{"r1"},
				Faults: &aquacore.FaultState{
					Profile: prof, Seed: 7, Draws: 0,
				},
			},
			Recovery: &journal.RecoveryState{},
		}},
		{Kind: journal.KindTransfer, Transfer: &journal.Transfer{Boundary: 1, PC: 1, Source: "s1", Volume: 30}},
		{Kind: journal.KindStep, Step: &journal.Step{Boundary: 1, PC: 1, Next: 2, Events: 0, Draws: 2}},
		{Kind: journal.KindRecovery, Recovery: &journal.RecoveryAction{Action: "retry", Boundary: 2, PC: 2, Attempt: 1}},
		{Kind: journal.KindReplan, Replan: &journal.Replan{
			Boundary: 2, PC: 2, Source: "s1", Need: 30.5, Have: 27.25,
			Method: "dagsolve", Scale: 0.875,
			Patches: map[int]float64{2: 26.6875, 5: 13.34375},
		}},
		{Kind: journal.KindStep, Step: &journal.Step{Boundary: 2, PC: 2, Next: 3, Halted: true, Events: 1, Draws: 5}},
		{Kind: journal.KindOutcome, Outcome: &journal.Outcome{Status: "completed", Boundaries: 3}},
	}
}

func writeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	jw, err := journal.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleRecords() {
		if err := jw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := writeSample(t)
	recs, err := journal.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("clean journal returned error: %v", err)
	}
	want := sampleRecords()
	if len(recs) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.Kind != want[i].Kind {
			t.Errorf("record %d kind = %s, want %s", i, rec.Kind, want[i].Kind)
		}
	}
	snap := recs[1].Snapshot
	if snap == nil || snap.Machine == nil {
		t.Fatal("snapshot record lost its machine state")
	}
	if got := snap.Machine.Vessels["s1"].Volume; got != 100.25 {
		t.Errorf("vessel volume round-trip: got %v, want 100.25", got)
	}
	if snap.Machine.Faults == nil || snap.Machine.Faults.Seed != 7 {
		t.Error("fault state lost in round trip")
	}
	rp := recs[5].Replan
	if rp == nil {
		t.Fatal("replan record lost its body")
	}
	if rp.Source != "s1" || rp.Method != "dagsolve" || rp.Scale != 0.875 {
		t.Errorf("replan round-trip: got %+v", rp)
	}
	// The patch map's int keys and exact float64 values must survive the
	// codec: resume reconstructs the patched plan from them.
	if len(rp.Patches) != 2 || rp.Patches[2] != 26.6875 || rp.Patches[5] != 13.34375 {
		t.Errorf("replan patches round-trip: got %v", rp.Patches)
	}
	if recs[7].Outcome.Status != "completed" {
		t.Errorf("outcome status = %q", recs[7].Outcome.Status)
	}
}

// Every truncation point of a valid journal must decode a good prefix
// and report either a clean end (boundary cuts) or a torn write — never
// a panic, never ErrCorrupt (no bytes were altered).
func TestTruncationAlwaysRecovers(t *testing.T) {
	data := writeSample(t)
	full, err := journal.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		recs, err := journal.ReadAll(bytes.NewReader(data[:cut]))
		if err != nil && !errors.Is(err, journal.ErrTornWrite) {
			t.Fatalf("cut at %d: error %v, want nil or ErrTornWrite", cut, err)
		}
		if len(recs) > len(full) {
			t.Fatalf("cut at %d: decoded %d records from a prefix of %d", cut, len(recs), len(full))
		}
		// A good prefix must agree with the full decode.
		for i, rec := range recs {
			if rec.Kind != full[i].Kind {
				t.Fatalf("cut at %d: record %d kind %s, want %s", cut, i, rec.Kind, full[i].Kind)
			}
		}
	}
}

// A bit flip anywhere in a record's frame or payload must surface as
// ErrCorrupt (or, if it inflates the length prefix past the file end,
// ErrTornWrite) with the preceding records intact.
func TestBitFlipDetected(t *testing.T) {
	data := writeSample(t)
	for _, off := range []int{9, 20, 60, len(data) - 3} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		recs, err := journal.ReadAll(bytes.NewReader(mut))
		if err == nil {
			// The flip may land in a later record; at least one must fail,
			// unless it produced an identical CRC (impossible for 1 bit).
			t.Fatalf("bit flip at %d went undetected (%d records)", off, len(recs))
		}
		if !errors.Is(err, journal.ErrCorrupt) && !errors.Is(err, journal.ErrTornWrite) {
			t.Fatalf("bit flip at %d: error %v, want ErrCorrupt or ErrTornWrite", off, err)
		}
	}
	// Flip in the header specifically → ErrCorrupt.
	mut := append([]byte(nil), data...)
	mut[0] ^= 1
	if _, err := journal.ReadAll(bytes.NewReader(mut)); !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("header flip: error %v, want ErrCorrupt", err)
	}
}

// A journal of the first format is refused by name, and as corrupt.
func TestVersionOneRefused(t *testing.T) {
	v1 := append([]byte("AQJRNL1\n"), writeSample(t)[journal.HeaderSize:]...)
	recs, err := journal.ReadAll(bytes.NewReader(v1))
	if len(recs) != 0 || !errors.Is(err, journal.ErrVersion) || !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("version 1 journal: %d records and %v, want none and ErrVersion, which is ErrCorrupt", len(recs), err)
	}
}

func TestRecoverAndOpenAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jrnl")
	data := writeSample(t)
	// Tear the tail mid-record.
	torn := data[:len(data)-5]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, tail, err := journal.Recover(vfs.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if !tail.Truncated || !errors.Is(tail.Reason, journal.ErrTornWrite) {
		t.Fatalf("tail = %+v, want truncated torn write", tail)
	}
	if len(recs) != len(sampleRecords())-1 {
		t.Fatalf("recovered %d records, want %d", len(recs), len(sampleRecords())-1)
	}

	// OpenAppend truncates the tail and appends cleanly.
	recs2, _, jw, f, err := journal.OpenAppend(vfs.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != len(recs) {
		t.Fatalf("OpenAppend salvaged %d records, want %d", len(recs2), len(recs))
	}
	if err := jw.Append(&journal.Record{Kind: journal.KindOutcome,
		Outcome: &journal.Outcome{Status: "completed", Boundaries: 3}}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	final, tail, err := journal.Recover(vfs.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if tail.Truncated {
		t.Fatalf("journal still dirty after OpenAppend repair: %+v", tail)
	}
	if got := final[len(final)-1]; got.Kind != journal.KindOutcome {
		t.Fatalf("appended record kind = %s, want outcome", got.Kind)
	}
}

func TestOpenAppendRejectsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.jrnl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := journal.OpenAppend(vfs.OS{}, path); err == nil {
		t.Fatal("OpenAppend accepted an empty file")
	}
}

func TestAppendValidates(t *testing.T) {
	jw, err := journal.NewWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		rec  *journal.Record
		want string
	}{
		{&journal.Record{Kind: journal.KindStep}, "journal: corrupt record: step record without a step body"},
		{&journal.Record{Kind: "bogus"}, `journal: corrupt record: unknown record kind "bogus"`},
		{&journal.Record{Kind: journal.KindStep, Step: &journal.Step{}, Outcome: &journal.Outcome{}},
			"journal: corrupt record: step record with 2 bodies"},
	} {
		err := jw.Append(c.rec)
		if err == nil || !errors.Is(err, journal.ErrCorrupt) || err.Error() != c.want {
			t.Errorf("Append(%+v) = %v, want %q", *c.rec, err, c.want)
		}
	}
	if jw.Err() != nil {
		t.Errorf("validation failures must not poison the writer: %v", jw.Err())
	}
}

func TestCreateWritesHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "new.jrnl")
	jw, f, err := journal.Create(vfs.OS{}, path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Append(&journal.Record{Kind: journal.KindBegin, Begin: &journal.Begin{Program: "p"}}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, tail, err := journal.Recover(vfs.OS{}, path)
	if err != nil || tail.Truncated || len(recs) != 1 {
		t.Fatalf("recover: recs=%d tail=%+v err=%v", len(recs), tail, err)
	}
}

// Create must refuse to clobber an existing non-empty journal (it may be
// the only crash evidence of a previous run) unless forced; an empty
// leftover file is always replaceable.
func TestCreateNoClobber(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jrnl")
	if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := journal.Create(vfs.OS{}, path, false); !errors.Is(err, journal.ErrExists) {
		t.Fatalf("Create over non-empty file: %v, want ErrExists", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "precious" {
		t.Fatalf("refused Create still modified the file: %q", b)
	}
	// force overrides.
	jw, f, err := journal.Create(vfs.OS{}, path, true)
	if err != nil {
		t.Fatalf("forced Create: %v", err)
	}
	if err := jw.Append(&journal.Record{Kind: journal.KindBegin, Begin: &journal.Begin{Program: "p"}}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// An empty file (a create that died between rename and first append)
	// is replaceable without force.
	empty := filepath.Join(dir, "empty.jrnl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, f2, err := journal.Create(vfs.OS{}, empty, false); err != nil {
		t.Fatalf("Create over empty file: %v", err)
	} else {
		f2.Close()
	}
}

// Create is atomic: a failure at any site before rename leaves neither
// the target nor the temp file behind.
func TestCreateAtomic(t *testing.T) {
	for _, strike := range []vfs.Strike{
		{Op: vfs.OpWrite, N: 0},                  // header write fails
		{Op: vfs.OpSync, N: 0},                   // header sync fails
		{Op: vfs.OpRename, N: 0, Err: vfs.ErrIO}, // rename fails
		{Op: vfs.OpCreate, N: 0, Err: vfs.ErrNoSpace},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, "run.jrnl")
		fsys := vfs.NewFaulty(vfs.OS{}, []vfs.Strike{strike}, nil)
		if _, _, err := journal.Create(fsys, path, false); err == nil {
			t.Fatalf("strike %s: Create succeeded", strike)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Fatalf("strike %s: failed Create left %q behind", strike, ents[0].Name())
		}
	}
}

// After the first fsync failure the writer is poisoned: no further bytes
// reach the sink, and every Append reports the original failure. This is
// the fail-stop rule — a post-fsync-failure retry can persist a journal
// with a silent hole.
func TestFailStopAfterSyncFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jrnl")
	// Sync #0 covers the header inside Create; sync #1 (first Append) lies.
	fsys := vfs.NewFaulty(vfs.OS{}, []vfs.Strike{{Op: vfs.OpSync, N: 1, Lying: true}}, nil)
	jw, f, err := journal.Create(fsys, path, false)
	if err != nil {
		t.Fatal(err)
	}
	rec := &journal.Record{Kind: journal.KindBegin, Begin: &journal.Begin{Program: "p"}}
	first := jw.Append(rec)
	if !errors.Is(first, vfs.ErrIO) {
		t.Fatalf("append over lying fsync: %v, want ErrIO", first)
	}
	writesBefore := fsys.Count(vfs.OpWrite)
	for i := 0; i < 3; i++ {
		if err := jw.Append(rec); !errors.Is(err, vfs.ErrIO) || err.Error() != first.Error() {
			t.Fatalf("poisoned append %d: %v, want the original sticky %v", i, err, first)
		}
	}
	if got := fsys.Count(vfs.OpWrite); got != writesBefore {
		t.Fatalf("poisoned writer still wrote to the sink (%d -> %d writes)", writesBefore, got)
	}
	f.Close()
	// The on-disk journal holds only what was synced: the header. The
	// salvaged prefix is exactly zero records, not a torn half-record.
	recs, _, err := journal.Recover(vfs.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("recovered %d records from a journal whose every append failed", len(recs))
	}
}
