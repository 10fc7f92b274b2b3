package journal_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"testing"

	"aquavol/internal/aquacore"
	"aquavol/internal/journal"
)

// FuzzDecode hardens the journal decoder against arbitrary bytes: it
// must never panic, and every input either decodes cleanly or fails with
// a sentinel the resume path knows how to recover from (ErrTornWrite or
// ErrCorrupt). This is the crash-safety contract: a journal left behind
// by a dying process is adversarial input.
func FuzzDecode(f *testing.F) {
	valid := func() []byte {
		var buf bytes.Buffer
		jw, err := journal.NewWriter(&buf)
		if err != nil {
			f.Fatal(err)
		}
		for _, rec := range []*journal.Record{
			{Kind: journal.KindBegin, Begin: &journal.Begin{Program: "p", Hash: 1, Instrs: 2, Replan: true}},
			{Kind: journal.KindStep, Step: &journal.Step{Boundary: 0, PC: 0, Next: 1}},
			{Kind: journal.KindReplan, Replan: &journal.Replan{
				Boundary: 1, PC: 1, Source: "s1", Need: 3, Have: 2,
				Method: "dagsolve", Scale: 0.5, Patches: map[int]float64{1: 1.5},
			}},
			{Kind: journal.KindSnapshot, Snapshot: &journal.Snapshot{
				Boundary: 2, PC: 2,
				Machine: &aquacore.Snapshot{
					Vessels: map[string]aquacore.VesselState{
						"s1": {Volume: 12.5, Composition: map[string]float64{"stock": 12.5}},
					},
					Steps: 2, Budget: 100,
					Faults: &aquacore.FaultState{Seed: 7, Draws: 4},
				},
				Recovery: &journal.RecoveryState{Retries: 1},
			}},
			{Kind: journal.KindOutcome, Outcome: &journal.Outcome{Status: "completed"}},
		} {
			if err := jw.Append(rec); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}()
	f.Add([]byte{})
	f.Add([]byte("AQJRNL1\n"))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[12] ^= 0xff
	f.Add(flipped)
	f.Add([]byte("AQJRNL1\n\xff\xff\xff\xff\x00\x00\x00\x00"))
	// Mutated-snapshot seeds: cuts and flips landing inside the snapshot
	// record's machine payload, steering the fuzzer toward the
	// Restore-facing decode surface.
	f.Add(valid[:len(valid)*3/4])
	for _, off := range []int{len(valid) / 2, len(valid)*2/3 + 1, len(valid) - 20} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x20
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := journal.ReadAll(bytes.NewReader(data))
		if err != nil && !errors.Is(err, journal.ErrTornWrite) && !errors.Is(err, journal.ErrCorrupt) {
			t.Fatalf("non-sentinel error from decoder: %v", err)
		}
		// Whatever decoded must be internally valid enough to re-encode,
		// and re-encode to exactly json.Marshal's bytes: the writer's
		// hand encoder is held to encoding/json on decoded input too.
		var buf bytes.Buffer
		jw, werr := journal.NewWriter(&buf)
		if werr != nil {
			t.Fatal(werr)
		}
		for _, rec := range recs {
			if aerr := jw.Append(rec); aerr != nil {
				t.Fatalf("decoded record does not re-encode: %v", aerr)
			}
		}
		frames := buf.Bytes()[len("AQJRNL1\n"):]
		for i, rec := range recs {
			want, merr := json.Marshal(rec)
			if merr != nil {
				t.Fatalf("record %d: json.Marshal: %v", i, merr)
			}
			n := binary.LittleEndian.Uint32(frames)
			if got := frames[8 : 8+n]; !bytes.Equal(got, want) {
				t.Fatalf("record %d re-encodes differently from json.Marshal\n got: %s\nwant: %s", i, got, want)
			}
			frames = frames[8+n:]
		}
	})
}
