package journal

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"aquavol/internal/aquacore"
	"aquavol/internal/faults"
)

// Adversarial values for the encoder oracle: every escape class
// encoding/json distinguishes, every float formatting regime, and int
// map keys whose string order differs from their numeric order.
var (
	oddStrings = []string{
		"", "plain", "s1.out2", `quote " and \ backslash`,
		"\x00\x01\x07\x1f\b\f\n\r\t", "<script>a && b</script>",
		"line\u2028para\u2029", "bad \xff\xfe utf8", "cut \xc3", "\xed\xa0\x80 surrogate",
		"\x7f del", "\u00e9 \u00fc \u65e5\u672c \U0001f9ea", "\\u2028 literal",
	}
	oddFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 100.25, 2.5e-5,
		1e-7, -1e-7, 1e-6, 9.99999e-7, 1e20, 1e21, -1e21, 999999999999999999999,
		5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
		123456789.123456789, math.MaxFloat64, -math.SmallestNonzeroFloat64,
	}
	badFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	oddInts   = []int64{0, 1, -1, 7, 9, 10, 100, math.MaxInt32, math.MaxInt64, math.MinInt64}
	oddUints  = []uint64{0, 1, 9, 10, math.MaxUint32, math.MaxUint64}
	// patchKeys include 9 and 10, which sort as "10" < "9".
	patchKeys = []int64{9, 10, 0, -1, 2, 100, 1 << 40}
)

// filler populates every exported field of a value by reflection, so a
// field added to any record type is filled, and json.Marshal encodes
// it, whether or not the hand encoder was taught it.
type filler struct {
	t   *testing.T
	rng *rand.Rand
	// bad is the chance a float is NaN or ±Inf instead of finite.
	bad float64
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
			switch k.Kind() {
			case reflect.Int:
				k.SetInt(patchKeys[f.rng.Intn(len(patchKeys))])
			default:
				f.fill(k)
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
		f.t.Fatalf("filler cannot fill a %s (%s): teach it, and the journal encoder, the new field", v.Kind(), v.Type())
	}
}

// checkAgainstMarshal encodes rec and requires json.Marshal's bytes, or
// json.Marshal's error when it has one, which it reports.
func checkAgainstMarshal(t *testing.T, e *encoder, rec *Record, what string) error {
	t.Helper()
	want, wantErr := json.Marshal(rec)
	got, gotErr := e.record(rec)
	switch {
	case wantErr != nil && gotErr == nil:
		t.Fatalf("%s: json.Marshal fails with %v, the encoder does not:\n%s", what, wantErr, got)
	case wantErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%s: encoder error %q, json.Marshal's %q", what, gotErr, wantErr)
	case wantErr == nil && gotErr != nil:
		t.Fatalf("%s: encoder fails with %v, json.Marshal does not", what, gotErr)
	case wantErr == nil && !bytes.Equal(got, want):
		t.Fatalf("%s: encoder bytes differ from json.Marshal's\n got: %s\nwant: %s", what, got, want)
	}
	return wantErr
}

// TestEncoderMatchesMarshal is the encoder's oracle test: records whose
// every exported field (recursing through every nested record type) is
// filled with adversarial values must encode to exactly json.Marshal's
// bytes, and NaN or ±Inf anywhere must fail with json.Marshal's error.
func TestEncoderMatchesMarshal(t *testing.T) {
	f := &filler{t: t, rng: rand.New(rand.NewSource(1)), seen: map[reflect.Type]bool{}}
	var e encoder
	failed := 0
	for i := 0; i < 4000; i++ {
		f.bad = 0
		if i%4 == 3 {
			f.bad = 0.02
		}
		rec := &Record{}
		f.fill(reflect.ValueOf(rec).Elem())
		if checkAgainstMarshal(t, &e, rec, "random record") != nil {
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

// TestEncoderSnapshotSequence feeds one encoder snapshots whose event
// logs grow, shrink and diverge and whose patch overlays change, so the
// event-log and patch caches are hit, partly hit and missed; every
// record must still encode to json.Marshal's bytes.
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
		name    string
		events  []aquacore.Event
		patches map[int]float64
		wet     float64
	}{
		{"empty", nil, nil, 1},
		{"first events", log(3, "a"), nil, 2},
		{"grown", log(7, "a"), map[int]float64{9: 1.5}, 3},
		{"same", log(7, "a"), map[int]float64{9: 1.5}, 4},
		{"grown again, patch added", log(9, "a"), map[int]float64{9: 1.5, 10: 2.5}, 5},
		{"shrunk", log(4, "a"), map[int]float64{9: 1.5, 10: 2.5}, 6},
		{"diverged mid-log", diverged, map[int]float64{9: 1.5, 10: 3.5}, 7},
		{"patch value sign", diverged, map[int]float64{9: 1.5, 10: math.Copysign(0, -1)}, 8},
		{"patch value zero", diverged, map[int]float64{9: 1.5, 10: 0}, 9},
		{"patch key moved", diverged, map[int]float64{9: 1.5, 11: 0}, 10},
		{"rewritten from scratch", log(5, "c"), map[int]float64{1: 1}, 11},
		{"events dropped", nil, map[int]float64{1: 1}, 12},
		{"patches dropped", log(2, "c"), nil, 13},
		{"bad patch after a bad field", log(2, "c"), map[int]float64{4: math.NaN()}, math.Inf(1)},
		{"same bad patch alone", log(2, "c"), map[int]float64{4: math.NaN()}, 14},
		{"bad patch mended", log(3, "c"), map[int]float64{4: 4}, 15},
		{"first one again", log(3, "a"), map[int]float64{9: 1.5}, 16},
	}
	var e encoder
	for _, s := range steps {
		rec := &Record{Kind: KindSnapshot, Snapshot: &Snapshot{
			Boundary: 1, PC: 2,
			Machine: &aquacore.Snapshot{
				Vessels:    map[string]aquacore.VesselState{"s1": {Volume: 1, Composition: map[string]float64{"a": 1}}},
				WetSeconds: s.wet,
				Events:     append([]aquacore.Event(nil), s.events...),
				Patches:    s.patches,
			},
		}}
		checkAgainstMarshal(t, &e, rec, s.name)
	}
}
