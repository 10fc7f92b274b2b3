package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"aquavol/internal/aquacore"
	"aquavol/internal/faults"
)

// decodeSamples are records of every kind, filled the way runs fill
// them: the decoder's canonical inputs.
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

// primedSnapshot is the payload of a snapshot with a three-event log:
// read first, it makes a later snapshot extending that log take the
// reuse path.
func primedSnapshot() []byte {
	b, _ := json.Marshal(decodeSamples(3)[5])
	return b
}

// declinedPayloads are valid-looking payloads the encoder never writes,
// each named for what is off: a decoder that has read primedSnapshot
// must hand every one to json.Unmarshal. Some of them json.Unmarshal
// takes, some it rejects.
func declinedPayloads() map[string]string {
	// A six-event log opens with primedSnapshot's three events; at is
	// the ',' after them, where the reuse path resumes parsing.
	long, _ := json.Marshal(decodeSamples(6)[5])
	primed, _ := json.Marshal(decodeSamples(3)[5].Snapshot.Machine.Events)
	at := bytes.Index(long, primed[:len(primed)-1]) + len(primed) - 1
	separator := func(c byte) string {
		b := bytes.Clone(long)
		b[at] = c
		return string(b)
	}
	transfer := func(volume string) string {
		return `{"kind":"transfer","transfer":{"boundary":1,"pc":2,"source":"s1","volume":` + volume + `}}`
	}
	source := func(s string) string {
		return `{"kind":"transfer","transfer":{"boundary":1,"pc":2,"source":"` + s + `","volume":1}}`
	}
	boundary := func(n string) string {
		return `{"kind":"step","step":{"boundary":` + n + `,"pc":2,"next":3,"events":0}}`
	}
	patches := func(m string) string {
		return `{"kind":"replan","replan":{"boundary":1,"pc":2,"source":"s1","need":1,"have":1,"method":"lp","patches":` + m + `}}`
	}
	machine := func(fields string) string {
		return `{"kind":"snapshot","snapshot":{"boundary":1,"pc":2,"machine":{"vessels":{}` + fields +
			`,"wetSeconds":0,"drySeconds":0,"wetInstrs":0,"dryInstrs":0,"steps":0,"budget":0,"solveErrsSeen":0}}}`
	}
	return map[string]string{
		"plus sign":            transfer("+1"),
		"no integer part":      transfer(".5"),
		"no fraction digits":   transfer("1."),
		"leading zero":         transfer("01"),
		"bare minus":           transfer("-"),
		"out of range":         transfer("1e400"),
		"hex float":            transfer("0x1p-2"),
		"infinity":             transfer("inf"),
		"NaN":                  transfer("NaN"),
		"no exponent digits":   transfer("1e"),
		"int leading zero":     boundary("01"),
		"int minus zero":       boundary("-0"),
		"int plus sign":        boundary("+1"),
		"int fraction":         boundary("1.0"),
		"int exponent":         boundary("1e2"),
		"int overflow":         boundary("9223372036854775808"),
		"uint32 overflow":      `{"kind":"begin","begin":{"program":"p","hash":4294967296,"instrs":1,"profile":{"MeterJitter":0,"DeadVolume":0,"EvapRate":0,"SenseNoise":0,"FailRate":0},"seed":0}}`,
		"uint32 negative":      `{"kind":"begin","begin":{"program":"p","hash":-1,"instrs":1,"profile":{"MeterJitter":0,"DeadVolume":0,"EvapRate":0,"SenseNoise":0,"FailRate":0},"seed":0}}`,
		"duplicate patch key":  patches(`{"1":1,"1":2}`),
		"patch keys numeric":   patches(`{"9":1,"10":2}`),
		"patch key plus":       patches(`{"+1":1}`),
		"duplicate vessel":     `{"kind":"snapshot","snapshot":{"boundary":1,"pc":2,"machine":{"vessels":{"a":{"vol":1},"a":{"vol":2}},"wetSeconds":0,"drySeconds":0,"wetInstrs":0,"dryInstrs":0,"steps":0,"budget":0,"solveErrsSeen":0}}}`,
		"map keys unsorted":    machine(`,"regs":{"b":1,"a":2}`),
		"map key repeated":     machine(`,"regs":{"a":1,"a":2}`),
		"empty omitempty map":  machine(`,"regs":{}`),
		"null omitempty map":   machine(`,"regs":null`),
		"empty event log":      machine(`,"events":[]`),
		"empty composition":    `{"kind":"snapshot","snapshot":{"boundary":1,"pc":2,"machine":{"vessels":{"a":{"vol":1,"comp":{}}},"wetSeconds":0,"drySeconds":0,"wetInstrs":0,"dryInstrs":0,"steps":0,"budget":0,"solveErrsSeen":0}}}`,
		"zero omitempty int":   `{"kind":"recovery","recovery":{"action":"retry","boundary":1,"pc":2,"attempt":0}}`,
		"zero omitempty float": `{"kind":"begin","begin":{"program":"p","hash":1,"instrs":1,"profile":{"MeterJitter":0,"DeadVolume":0,"EvapRate":0,"SenseNoise":0,"FailRate":0},"seed":0,"margin":0}}`,
		"event separator":      separator('x'),
		"event whitespace":     separator(' '),
		"empty omitempty str":  `{"kind":"recovery","recovery":{"action":"retry","boundary":1,"pc":2,"detail":""}}`,
		"false omitempty":      `{"kind":"step","step":{"boundary":1,"pc":2,"next":3,"halted":false,"events":0}}`,
		"null body":            `{"kind":"step","step":null}`,
		"null omitempty ptr":   `{"kind":"snapshot","snapshot":{"boundary":1,"pc":2,"machine":null,"recovery":null}}`,
		"fields reordered":     `{"kind":"step","step":{"pc":2,"boundary":1,"next":3,"events":0}}`,
		"duplicate field":      `{"kind":"step","kind":"step","step":{"boundary":1,"pc":2,"next":3,"events":0}}`,
		"unknown field":        `{"kind":"step","step":{"boundary":1,"pc":2,"next":3,"events":0,"extra":1}}`,
		"field case folded":    `{"Kind":"step","step":{"boundary":1,"pc":2,"next":3,"events":0}}`,
		"lone surrogate":       source(`\ud800`),
		"needless escape":      source(`\u0041`),
		"upper-case hex":       source(`\u003C`),
		"escaped solidus":      source(`\/`),
		"long form of \\n":     source(`\u000a`),
		"raw control byte":     source("a\x01b"),
		"raw <":                source("a<b"),
		"raw U+2028":           source("a\u2028b"),
		"invalid UTF-8":        source("a\xffb"),
		"trailing whitespace":  boundary("1") + " ",
		"trailing newline":     boundary("1") + "\n",
		"inner whitespace":     `{"kind": "step","step":{"boundary":1,"pc":2,"next":3,"events":0}}`,
		"trailing garbage":     boundary("1") + "}",
		"truncated":            boundary("1")[:20],
	}
}

// TestDecoderDeclines holds the decoder to the encoder's bytes: every
// payload the encoder would not write is declined, and the Reader then
// returns exactly json.Unmarshal's record or its error.
func TestDecoderDeclines(t *testing.T) {
	primed := primedSnapshot()
	for name, p := range declinedPayloads() {
		var d decoder
		if _, ok := d.record(primed); !ok {
			t.Fatal("the decoder declines the canonical snapshot")
		}
		if _, ok := d.record([]byte(p)); ok {
			t.Errorf("%s: the decoder takes %q", name, p)
			continue
		}
		journal := append(append([]byte(magic), frame(primed)...), frame([]byte(p))...)
		jr := NewReader(bytes.NewReader(journal))
		if _, err := jr.Next(); err != nil {
			t.Fatal(err)
		}
		got, err := jr.Next()
		if jr.declined != 1 {
			t.Errorf("%s: the Reader declined %d payloads, want 1", name, jr.declined)
		}
		want := &Record{}
		werr := json.Unmarshal([]byte(p), want)
		if werr == nil {
			werr = want.validate()
		}
		switch {
		case werr != nil && (!errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), werr.Error())):
			t.Errorf("%s: Reader error %v, want ErrCorrupt with %q", name, err, werr)
		case werr == nil && (err != nil || !reflect.DeepEqual(got, want)):
			t.Errorf("%s: Reader returned %#v (%v), json.Unmarshal %#v", name, got, err, want)
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

// TestDecodedEventsAreOwned reads snapshots whose event logs extend one
// another, so each decode reuses the previous one's events, and changes
// each record's events before reading the next: no change may reach
// another record.
func TestDecodedEventsAreOwned(t *testing.T) {
	var buf bytes.Buffer
	jw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for _, n := range []int{2, 5, 5, 9} {
		rec := decodeSamples(n)[5]
		if err := jw.Append(rec); err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(rec)
		payloads = append(payloads, b)
	}
	jr := NewReader(&buf)
	for i, p := range payloads {
		got, err := jr.Next()
		if err != nil {
			t.Fatal(err)
		}
		want := &Record{}
		if err := json.Unmarshal(p, want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot %d differs from json.Unmarshal's after the previous one's events changed", i)
		}
		// The reuse cache holds this log: its array up to the closing
		// bracket, and its events.
		evs := got.Snapshot.Machine.Events
		raw, _ := json.Marshal(evs)
		if !bytes.Equal(jr.dec.evRaw, raw[:len(raw)-1]) || !reflect.DeepEqual(jr.dec.evs, evs) {
			t.Fatalf("after snapshot %d the decoder keeps %d events and %q", i, len(jr.dec.evs), jr.dec.evRaw)
		}
		for k := range evs {
			evs[k] = aquacore.Event{Kind: 99, Detail: "changed"}
		}
	}
	if jr.declined != 0 {
		t.Errorf("%d snapshots took json.Unmarshal", jr.declined)
	}
}

// FuzzDecodePayload holds the decoder to json.Unmarshal on arbitrary
// bytes: a payload the decoder takes must be one json.Unmarshal takes
// too, decoding to an equal record that re-encodes to the same bytes.
// The decoder first reads a snapshot, so inputs that share its event
// log take the reuse path.
func FuzzDecodePayload(f *testing.F) {
	for _, n := range []int{3, 6} {
		for _, r := range decodeSamples(n) {
			b, err := json.Marshal(r)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	for _, p := range declinedPayloads() {
		f.Add([]byte(p))
	}
	primed := primedSnapshot()
	f.Fuzz(func(t *testing.T, data []byte) {
		var d decoder
		if _, ok := d.record(primed); !ok {
			t.Fatal("the decoder declines the canonical snapshot")
		}
		got, ok := d.record(data)
		if !ok {
			return
		}
		want := &Record{}
		if err := json.Unmarshal(data, want); err != nil {
			t.Fatalf("the decoder takes a payload json.Unmarshal rejects (%v): %q", err, data)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded record differs from json.Unmarshal's for %q\n got: %#v\nwant: %#v", data, got, want)
		}
		gotBytes, gotErr := json.Marshal(got)
		wantBytes, wantErr := json.Marshal(want)
		if gotErr != nil || wantErr != nil || !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("decoded record re-encodes differently from json.Unmarshal's for %q (%v, %v)\n got: %s\nwant: %s", data, gotErr, wantErr, gotBytes, wantBytes)
		}
	})
}
