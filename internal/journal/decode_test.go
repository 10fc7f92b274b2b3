package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"aquavol/internal/aquacore"
	"aquavol/internal/faults"
)

// decodeSamples are records of every kind, filled the way runs fill
// them.
func decodeSamples(events int) []*Record {
	var evs []aquacore.Event
	for k := 0; k < events; k++ {
		evs = append(evs, aquacore.Event{Kind: aquacore.EventKind(k % 10), PC: k, Instr: "move s1, s2", Detail: "drew 1.5 nl <of> 2 & more"})
	}
	p := faults.Profile{MeterJitter: 0.05, DeadVolume: 0.1, EvapRate: 1e-7, FailRate: 0.02}
	return []*Record{
		{Kind: KindBegin, Begin: &Begin{Program: "glucose", Hash: math.MaxUint32, Instrs: 40, Profile: p, Seed: -3, Yield: 0.4, Retries: 3, SnapshotEvery: 8, Replan: true, CertHash: 7}},
		{Kind: KindStep, Step: &Step{Boundary: 9, PC: 10, Next: 11, Halted: true, Events: 3, Draws: math.MaxUint64}},
		{Kind: KindTransfer, Transfer: &Transfer{Boundary: 1, PC: 2, Source: "s1", Volume: 2.5e-7}},
		{Kind: KindRecovery, Recovery: &RecoveryAction{Action: "retry", Boundary: 1, PC: 2, Attempt: 1, Detail: "fu-failure\tat \"sep\""}},
		{Kind: KindReplan, Replan: &Replan{Boundary: 3, PC: 4, Source: "s2", Need: 3, Have: 2, Method: "dagsolve", Scale: 0.5, Patches: map[int]float64{9: 1.5, 10: -0.25, -1: 1e21}, CertHash: 1}},
		{Kind: KindSnapshot, Snapshot: &Snapshot{
			Boundary: 8, PC: 9,
			Machine: &aquacore.Snapshot{
				Vessels: map[string]aquacore.VesselState{
					"s1": {Volume: 12.5, Composition: map[string]float64{"stock": 12.5, "buffer": 0}},
					"s2": {Volume: 0},
				},
				Regs: map[string]float64{"r": 1}, Known: []string{"r"},
				WetSeconds: 1.25, DrySeconds: 0.5, WetInstrs: 4, DryInstrs: 2, InputNl: 20,
				Events:  evs,
				Dry:     map[string]float64{"d": 2},
				Outputs: []aquacore.Output{{Port: "out", Volume: 1}, {Port: "waste", Volume: 2, Composition: map[string]float64{}}},
				Drift:   map[string]float64{"s1": -0.125},
				Steps:   8, Budget: 100, SolveErrsSeen: 1,
				Patches:      map[int]float64{12: 0.75},
				Measurements: []aquacore.Measurement{{Node: 3, Port: "AF", Volume: 4.5}},
				Faults:       &aquacore.FaultState{Profile: p, Seed: 7, Draws: 4},
			},
			Recovery: &RecoveryState{Retries: 1, BackoffSeconds: 0.5, ReplanBoundaries: []int{3}, Incidents: []Incident{{Kind: 2, PC: 4, Instr: "mix", Detail: "ran out", Retries: 3}}},
		}},
		{Kind: KindOutcome, Outcome: &Outcome{Status: "aborted", Err: "crash", Boundaries: 12}},
	}
}

// raw builds payloads by hand, in the codec's layout.
type raw []byte

func (r raw) u(v uint64) raw   { return binary.AppendUvarint(r, v) }
func (r raw) i(v int64) raw    { return binary.AppendVarint(r, v) }
func (r raw) f(v float64) raw  { return binary.LittleEndian.AppendUint64(r, math.Float64bits(v)) }
func (r raw) s(v string) raw   { return append(r.u(uint64(len(v))), v...) }
func (r raw) b(v ...byte) raw  { return append(r, v...) }
func (r raw) cat(v []byte) raw { return append(r, v...) }

// Hand-built payloads of three kinds, each taking the part under test
// as its argument: step's halted byte, transfer's volume, and replan's
// patch map (count and entries).
func stepPayload(boundary []byte, halted byte) raw {
	return raw{1}.cat(boundary).i(2).i(3).b(halted).i(0).u(0)
}

func transferPayload(volume []byte) raw { return raw{3}.i(1).i(2).s("s1").cat(volume) }

func replanPayload(patches []byte) raw {
	return raw{5}.i(1).i(2).s("s1").f(1).f(1).s("lp").f(0).cat(patches).u(0)
}

// corruptPayloads are payloads the encoder never writes, each named for
// what is off; every one must fail to decode as ErrCorrupt.
func corruptPayloads() map[string][]byte {
	nan := raw{}.f(math.NaN())
	return map[string][]byte{
		"empty":                   nil,
		"unknown kind":            raw{7}.i(1).i(2).i(3).b(0).i(0).u(0),
		"kind 255":                raw{255},
		"bool byte 2":             stepPayload(raw{}.i(1), 2),
		"bool byte 255":           stepPayload(raw{}.i(1), 255),
		"non-minimal varint":      stepPayload(raw{0x82, 0x00}, 0),
		"varint past 64 bits":     stepPayload(raw{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, 0),
		"payload ends in varint":  raw{1, 0x80},
		"trailing byte":           stepPayload(raw{}.i(1), 0).b(0),
		"NaN":                     transferPayload(nan),
		"quiet NaN, sign set":     transferPayload(raw{}.b(1, 0, 0, 0, 0, 0, 0xf8, 0xff)),
		"+Inf":                    transferPayload(raw{}.f(math.Inf(1))),
		"-Inf":                    transferPayload(raw{}.f(math.Inf(-1))),
		"float cut short":         transferPayload(raw{}.f(1)[:7]),
		"string past the payload": raw{3}.i(1).i(2).u(40).b('s', '1'),
		"count past the payload":  replanPayload(raw{}.u(1001)),
		"count of 2^64-1":         replanPayload(raw{}.u(math.MaxUint64)),
		"patch keys unsorted":     replanPayload(raw{}.u(3).i(2).f(1).i(1).f(1)),
		"patch key repeated":      replanPayload(raw{}.u(3).i(1).f(1).i(1).f(2)),
		"patch value NaN":         replanPayload(raw{}.u(2).i(1).cat(nan)),
		"uint32 past its range":   raw{0}.s("p").u(math.MaxUint32 + 1),
		"presence byte 2":         raw{2}.i(1).i(2).b(2),
	}
}

// TestDecoderDeclines holds the decoder to the encoder's bytes. The
// hand-built payloads' valid forms decode and re-encode to themselves;
// every corrupt payload, and every proper prefix of each sample
// record's payload, fails as ErrCorrupt through the Reader, with the
// record before it intact.
func TestDecoderDeclines(t *testing.T) {
	for name, p := range map[string]raw{
		"step":     stepPayload(raw{}.i(1), 1),
		"transfer": transferPayload(raw{}.f(math.Copysign(0, -1))),
		"replan":   replanPayload(raw{}.u(3).i(-1).f(5e-324).i(1).f(2)),
	} {
		rec, err := decode(p)
		if err != nil {
			t.Fatalf("valid %s payload: %v", name, err)
		}
		if b, err := encode(nil, rec); err != nil || !bytes.Equal(b, p) {
			t.Fatalf("valid %s payload re-encodes as %x (%v), want %x", name, b, err, []byte(p))
		}
	}
	cases := corruptPayloads()
	for _, rec := range decodeSamples(3) {
		p, err := encode(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		for n := range p {
			cases[fmt.Sprintf("%s cut at %d", rec.Kind, n)] = p[:n]
		}
	}
	first := decodeSamples(0)[1]
	firstPayload, _ := encode(nil, first)
	for name, p := range cases {
		if rec, err := decode(p); err == nil {
			t.Errorf("%s: the decoder takes %x as %+v", name, p, rec)
			continue
		}
		journal := append(append([]byte(magic), frame(firstPayload)...), frame(p)...)
		recs, err := ReadAll(bytes.NewReader(journal))
		if !errors.Is(err, ErrCorrupt) || len(recs) != 1 || !reflect.DeepEqual(recs[0], first) {
			t.Errorf("%s: the Reader returns %d records and %v, want the first and ErrCorrupt", name, len(recs), err)
		}
	}
}

// frame wraps payload as Append writes it.
func frame(payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	return append(hdr[:], payload...)
}

// TestDecodedEventsAreOwned: decoded records share no mutable memory,
// with the payload buffer the Reader reuses or with each other.
// Snapshots with growing event logs are read back, then every slice,
// map and pointer of one record is scribbled over; every other record
// must still equal what was appended.
func TestDecodedEventsAreOwned(t *testing.T) {
	var buf bytes.Buffer
	jw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var want []*Record
	for _, n := range []int{2, 5, 5, 9} {
		for _, rec := range decodeSamples(n)[4:6] {
			if err := jw.Append(rec); err != nil {
				t.Fatal(err)
			}
			want = append(want, rec)
		}
	}
	for victim := range want {
		got, err := ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		scribble(reflect.ValueOf(got[victim]).Elem())
		for i := range got {
			if i != victim && !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("scribbling over record %d changed record %d", victim, i)
			}
		}
		if reflect.DeepEqual(got[victim], want[victim]) {
			t.Fatalf("scribble left record %d as it was", victim)
		}
	}
}

// scribble overwrites every slice element, map entry and pointed-to
// field reachable from v.
func scribble(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			scribble(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scribble(v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			scribble(v.Index(i))
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(v.MapIndex(k))
			scribble(e)
			v.SetMapIndex(k, e)
		}
	case reflect.String:
		v.SetString("scribbled")
	case reflect.Float64:
		v.SetFloat(-7)
	case reflect.Int, reflect.Int64:
		v.SetInt(-7)
	}
}

// FuzzDecodePayload holds the decoder to the encoder on arbitrary
// bytes: a payload the decoder takes must re-encode to exactly those
// bytes, so no two payloads decode to the same record.
func FuzzDecodePayload(f *testing.F) {
	for _, n := range []int{3, 6} {
		for _, r := range decodeSamples(n) {
			b, err := encode(nil, r)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	for _, p := range corruptPayloads() {
		f.Add([]byte(p))
	}
	fill := &filler{t: f, rng: rand.New(rand.NewSource(2)), seen: map[reflect.Type]bool{}}
	for k := 0; k < 35; k++ {
		b, err := encode(nil, fill.record(k%len(kinds)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decode(data)
		if err != nil {
			return
		}
		if err := rec.validate(); err != nil {
			t.Fatalf("the decoder returns an invalid record for %x: %v", data, err)
		}
		b, err := encode(nil, rec)
		if err != nil || !bytes.Equal(b, data) {
			t.Fatalf("decoded record re-encodes differently (%v)\n got: %x\nwant: %x", err, b, data)
		}
	})
}
