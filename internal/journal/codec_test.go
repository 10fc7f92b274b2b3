package journal

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"aquavol/internal/aquacore"
	"aquavol/internal/faults"
)

// Adversarial values for the round-trip oracle: signed zeros,
// subnormals and the float extremes, ints and uints at every varint
// length boundary and at their limits, and strings that are empty,
// invalid UTF-8, or long enough to need a two-byte length.
var (
	oddStrings = []string{
		"", "plain", "s1.out2", "\x00\x01\x07\x1f\b\f\n\r\t", "<script>a && b</script>",
		"bad \xff\xfe utf8", "cut \xc3", "\xed\xa0\x80 surrogate", "line\u2028para",
		"\u00e9 \u00fc \u65e5\u672c \U0001f9ea", strings.Repeat("long ", 40),
	}
	oddFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 100.25, 2.5e-5, 1e-7, 1e21,
		5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64,
	}
	badFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	oddInts   = []int64{0, 1, -1, 63, -64, 64, -65, 8191, 8192, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	oddUints  = []uint64{0, 1, 127, 128, 16383, 16384, math.MaxUint32, math.MaxUint64}
)

// filler populates every exported field of a value by reflection, so a
// field added to any record type is filled whether or not the codec
// was taught it.
type filler struct {
	t   testing.TB
	rng *rand.Rand
	// bad is the chance a float is NaN or ±Inf instead of finite, and
	// bads counts the ones filled in.
	bad  float64
	bads int
	// seen records every struct type filled.
	seen map[reflect.Type]bool
}

func (f *filler) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if f.rng.Intn(6) == 0 {
			return // nil
		}
		p := reflect.New(v.Type().Elem())
		f.fill(p.Elem())
		v.Set(p)
	case reflect.Struct:
		f.seen[v.Type()] = true
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	case reflect.Map:
		switch f.rng.Intn(4) {
		case 0:
			return // nil
		case 1:
			v.Set(reflect.MakeMap(v.Type()))
			return
		}
		m := reflect.MakeMap(v.Type())
		for n := 1 + f.rng.Intn(4); n > 0; n-- {
			k := reflect.New(v.Type().Key()).Elem()
			if f.fill(k); m.MapIndex(k).IsValid() {
				continue // a value filled for it now would vanish
			}
			e := reflect.New(v.Type().Elem()).Elem()
			f.fill(e)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Slice:
		switch f.rng.Intn(4) {
		case 0:
			return // nil
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
			return
		}
		s := reflect.MakeSlice(v.Type(), 1+f.rng.Intn(4), 4)
		for i := 0; i < s.Len(); i++ {
			f.fill(s.Index(i))
		}
		v.Set(s)
	case reflect.String:
		v.SetString(oddStrings[f.rng.Intn(len(oddStrings))])
	case reflect.Float64:
		if f.rng.Float64() < f.bad {
			f.bads++
			v.SetFloat(badFloats[f.rng.Intn(len(badFloats))])
			return
		}
		v.SetFloat(oddFloats[f.rng.Intn(len(oddFloats))])
	case reflect.Int, reflect.Int64:
		v.SetInt(oddInts[f.rng.Intn(len(oddInts))])
	case reflect.Uint32:
		v.SetUint(oddUints[f.rng.Intn(len(oddUints))] & math.MaxUint32)
	case reflect.Uint64:
		v.SetUint(oddUints[f.rng.Intn(len(oddUints))])
	case reflect.Bool:
		v.SetBool(f.rng.Intn(2) == 0)
	default:
		f.t.Fatalf("filler cannot fill a %s (%s): teach it, and the journal codec, the new field", v.Kind(), v.Type())
	}
}

// record returns a record of kinds[k] whose body is filled.
func (f *filler) record(k int) *Record {
	rec := &Record{Kind: kinds[k]}
	body := reflect.ValueOf(rec).Elem().Field(k + 1)
	p := reflect.New(body.Type().Elem())
	f.fill(p.Elem())
	body.Set(p)
	if err := rec.validate(); err != nil {
		f.t.Fatalf("Record's field %d is not the %s body: %v", k+1, kinds[k], err)
	}
	return rec
}

// checkRoundTrip encodes rec into buf and, when that succeeds, requires
// the decoder to give back a record reflect.DeepEqual to rec, which
// tells nil from empty maps and slices, that re-encodes to the same
// bytes, which tells −0 from 0. It returns the payload and the
// encoding error.
func checkRoundTrip(t *testing.T, buf []byte, rec *Record, what string) ([]byte, error) {
	t.Helper()
	b, err := encode(buf[:0], rec)
	if err != nil {
		return b, err
	}
	got, err := decode(b)
	if err != nil {
		t.Fatalf("%s: the decoder refuses what the encoder wrote (%v):\n%x", what, err, b)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("%s: decoded record differs\n got: %#v\nwant: %#v", what, got, rec)
	}
	if again, err := encode(nil, got); err != nil || !bytes.Equal(again, b) {
		t.Fatalf("%s: decoded record re-encodes differently (%v)\n got: %x\nwant: %x", what, err, again, b)
	}
	return b, nil
}

// TestCodecRoundTrip is the codec's oracle: records of every kind whose
// every exported field, recursing through every nested type, is filled
// with adversarial values must decode to what was encoded, and a NaN or
// ±Inf anywhere must fail the encoding.
func TestCodecRoundTrip(t *testing.T) {
	f := &filler{t: t, rng: rand.New(rand.NewSource(1)), seen: map[reflect.Type]bool{}}
	var buf []byte
	failed := 0
	for i := 0; i < 4000; i++ {
		f.bad, f.bads = 0, 0
		if i%4 == 3 {
			f.bad = 0.02
		}
		rec := f.record(i % len(kinds))
		b, err := checkRoundTrip(t, buf, rec, fmt.Sprintf("record %d (%s)", i, rec.Kind))
		buf = b
		if (err != nil) != (f.bads > 0) {
			t.Fatalf("record %d holds %d non-finite floats, and encoding it returns %v", i, f.bads, err)
		}
		if err != nil {
			failed++
		}
	}
	if failed == 0 || failed > 1000 {
		t.Errorf("%d of 4000 records held NaN or ±Inf: the oracle needs both kinds", failed)
	}
	for _, typ := range []any{
		Begin{}, Step{}, Snapshot{}, Transfer{}, RecoveryAction{}, Replan{}, Outcome{},
		aquacore.Snapshot{}, aquacore.VesselState{}, aquacore.Event{}, aquacore.Output{},
		aquacore.Measurement{}, aquacore.FaultState{}, faults.Profile{}, RecoveryState{}, Incident{},
	} {
		if !f.seen[reflect.TypeOf(typ)] {
			t.Errorf("the filler never reached %T", typ)
		}
	}
}

// TestAppendRefusesNonFinite: a NaN or ±Inf anywhere in a record fails
// its Append, writes nothing, and leaves the writer usable.
func TestAppendRefusesNonFinite(t *testing.T) {
	for _, bad := range badFloats {
		var sink bytes.Buffer
		jw, err := NewWriter(&sink)
		if err != nil {
			t.Fatal(err)
		}
		snap := decodeSamples(2)[5]
		snap.Snapshot.Machine.Vessels["s1"].Composition["stock"] = bad
		for _, rec := range []*Record{
			{Kind: KindTransfer, Transfer: &Transfer{Source: "s1", Volume: bad}},
			snap,
		} {
			err := jw.Append(rec)
			if err == nil || errors.Is(err, ErrCorrupt) || jw.Err() != nil {
				t.Fatalf("Append of a %s record holding %v: %v (sticky %v), want a non-sticky encoding error", rec.Kind, bad, err, jw.Err())
			}
			if sink.Len() != len(magic) {
				t.Fatalf("a refused %s record wrote %d bytes", rec.Kind, sink.Len()-len(magic))
			}
		}
		good := decodeSamples(2)[1]
		if err := jw.Append(good); err != nil {
			t.Fatal(err)
		}
		recs, err := ReadAll(&sink)
		if err != nil || len(recs) != 1 || !reflect.DeepEqual(recs[0], good) {
			t.Fatalf("after refusing %v the journal reads back %v (%v)", bad, recs, err)
		}
	}
}

// TestEncoderSnapshotSequence appends, through one Writer, snapshots
// whose event logs grow, shrink and diverge and whose patch overlays
// change, so the writer's reused buffer shrinks and grows: every frame
// must hold exactly the bytes a fresh encoder writes, and read back
// equal to the record appended.
func TestEncoderSnapshotSequence(t *testing.T) {
	ev := func(k int, detail string) aquacore.Event {
		return aquacore.Event{Kind: aquacore.EventKind(k % 10), PC: k, Instr: "move s1, s2", Detail: detail}
	}
	log := func(n int, detail string) []aquacore.Event {
		var evs []aquacore.Event
		for k := 0; k < n; k++ {
			evs = append(evs, ev(k, detail))
		}
		return evs
	}
	diverged := log(6, "a")
	diverged[3].Detail = "b <&>"
	steps := []struct {
		events  []aquacore.Event
		patches map[int]float64
	}{
		{nil, nil},
		{log(3, "a"), nil},
		{log(7, "a"), map[int]float64{9: 1.5}},
		{log(7, "a"), map[int]float64{9: 1.5}},
		{log(90, "a"), map[int]float64{9: 1.5, 10: 2.5}},
		{log(4, "a"), map[int]float64{9: 1.5, 10: 2.5}},
		{diverged, map[int]float64{9: 1.5, 10: math.Copysign(0, -1)}},
		{diverged, map[int]float64{9: 1.5, 10: 0}},
		{[]aquacore.Event{}, map[int]float64{}},
		{log(2, "c"), nil},
	}
	var sink bytes.Buffer
	jw, err := NewWriter(&sink)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	var recs []*Record
	for i, s := range steps {
		rec := &Record{Kind: KindSnapshot, Snapshot: &Snapshot{
			Boundary: i, PC: 2,
			Machine: &aquacore.Snapshot{
				Vessels: map[string]aquacore.VesselState{"s1": {Volume: 1, Composition: map[string]float64{"a": 1}}},
				Events:  s.events,
				Patches: s.patches,
			},
		}}
		if err := jw.Append(rec); err != nil {
			t.Fatal(err)
		}
		payload, err := encode(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, frame(payload)...)
		recs = append(recs, rec)
	}
	if got := sink.Bytes()[len(magic):]; !bytes.Equal(got, want) {
		t.Fatalf("the writer's frames differ from fresh encodings\n got: %x\nwant: %x", got, want)
	}
	got, err := ReadAll(&sink)
	if err != nil || !reflect.DeepEqual(got, recs) {
		t.Fatalf("the sequence reads back differently (%v)", err)
	}
}
