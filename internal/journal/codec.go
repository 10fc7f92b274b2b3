package journal

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"aquavol/internal/aquacore"
	"aquavol/internal/faults"
)

// codec is the journal's one payload format, in both directions: each
// record type's fields are listed once, in declaration order, in a
// method that encodes them when dec is false and decodes them when it
// is true. A payload is a kind byte followed by that kind's body:
//
//   - int and int64 as zigzag varints, uint32 and uint64 as varints,
//     each in its shortest form;
//   - float64 as its 8 IEEE-754 bytes, little-endian; NaN and ±Inf are
//     refused both ways;
//   - bool as one byte, 0 or 1;
//   - string as a varint byte length and the bytes, unchecked;
//   - a pointer that may be nil as a bool, then its fields when set;
//   - a map or slice as a varint of its length plus one, 0 for nil,
//     then its elements; map entries in strictly increasing key order.
//
// Decoding takes exactly the bytes encoding writes: anything else (a
// short payload, a trailing byte, a non-minimal varint, a bool byte
// above 1, an unknown kind, a count the payload cannot hold, keys out
// of order or repeated, a non-finite float) is the first failure,
// after which every call is a no-op. Decoded strings, slices and maps
// are fresh, so a record shares no memory with the payload or with
// another record. A field added to any record type, aquacore.Snapshot
// and the types it nests included, must be added here; the round-trip
// test fills every exported field and fails until it is.
type codec struct {
	// b is the payload: appended to when encoding, consumed from the
	// front when decoding.
	b   []byte
	dec bool
	// err is the first failure: a non-finite float when encoding, a
	// byte the encoder would not write when decoding.
	err error
}

// kinds numbers the record kinds: a payload opens with its kind's
// index here.
var kinds = [...]Kind{KindBegin, KindStep, KindSnapshot, KindTransfer, KindRecovery, KindReplan, KindOutcome}

// encode appends the payload of r, which must be valid, to b.
func encode(b []byte, r *Record) ([]byte, error) {
	c := codec{b: b}
	c.record(r)
	return c.b, c.err
}

// decode reads the record a payload holds.
func decode(payload []byte) (*Record, error) {
	c := codec{b: payload, dec: true}
	r := &Record{}
	c.record(r)
	if c.err == nil && len(c.b) > 0 {
		c.fail("%d bytes after the record", len(c.b))
	}
	if c.err != nil {
		return nil, c.err
	}
	return r, nil
}

func (c *codec) record(r *Record) {
	k := byte(slices.Index(kinds[:], r.Kind))
	c.byte(&k, len(kinds)-1, "record kind")
	if c.dec && c.err == nil {
		r.Kind = kinds[k]
	}
	switch r.Kind {
	case KindBegin:
		c.begin(body(c, &r.Begin))
	case KindStep:
		c.step(body(c, &r.Step))
	case KindSnapshot:
		c.snapshot(body(c, &r.Snapshot))
	case KindTransfer:
		c.transfer(body(c, &r.Transfer))
	case KindRecovery:
		c.recoveryAction(body(c, &r.Recovery))
	case KindReplan:
		c.replan(body(c, &r.Replan))
	case KindOutcome:
		c.outcome(body(c, &r.Outcome))
	}
}

// body returns a record's body, allocating it when decoding.
func body[T any](c *codec, p **T) *T {
	if c.dec {
		*p = new(T)
	}
	return *p
}

func (c *codec) begin(v *Begin) {
	c.str(&v.Program)
	c.uint32(&v.Hash)
	c.int(&v.Instrs)
	c.profile(&v.Profile)
	c.int64(&v.Seed)
	c.float(&v.Margin)
	c.float(&v.Yield)
	c.int(&v.Retries)
	c.int(&v.SnapshotEvery)
	c.bool(&v.Replan)
	c.uint32(&v.CertHash)
}

func (c *codec) profile(p *faults.Profile) {
	c.float(&p.MeterJitter)
	c.float(&p.DeadVolume)
	c.float(&p.EvapRate)
	c.float(&p.SenseNoise)
	c.float(&p.FailRate)
}

func (c *codec) step(v *Step) {
	c.int(&v.Boundary)
	c.int(&v.PC)
	c.int(&v.Next)
	c.bool(&v.Halted)
	c.int(&v.Events)
	c.uvarint(&v.Draws)
}

func (c *codec) snapshot(v *Snapshot) {
	c.int(&v.Boundary)
	c.int(&v.PC)
	if opt(c, &v.Machine) {
		c.machine(v.Machine)
	}
	if opt(c, &v.Recovery) {
		c.recoveryState(v.Recovery)
	}
}

// The min argument of mapOf and sliceOf is the fewest bytes one entry
// encodes to: a string or varint takes at least one, a float eight.

func (c *codec) machine(s *aquacore.Snapshot) {
	mapOf(c, &s.Vessels, 10, (*codec).str, (*codec).vessel)
	c.floats(&s.Regs)
	sliceOf(c, &s.Known, 1, (*codec).str)
	c.float(&s.WetSeconds)
	c.float(&s.DrySeconds)
	c.int(&s.WetInstrs)
	c.int(&s.DryInstrs)
	c.float(&s.InputNl)
	sliceOf(c, &s.Events, 4, (*codec).event)
	c.floats(&s.Dry)
	sliceOf(c, &s.Outputs, 10, (*codec).output)
	c.floats(&s.UnitSeconds)
	c.floats(&s.Drift)
	c.int(&s.Steps)
	c.int(&s.Budget)
	c.int(&s.SolveErrsSeen)
	mapOf(c, &s.Patches, 9, (*codec).int, (*codec).float)
	sliceOf(c, &s.Measurements, 10, (*codec).measurement)
	if opt(c, &s.Faults) {
		c.profile(&s.Faults.Profile)
		c.int64(&s.Faults.Seed)
		c.uvarint(&s.Faults.Draws)
	}
}

func (c *codec) vessel(v *aquacore.VesselState) {
	c.float(&v.Volume)
	c.floats(&v.Composition)
}

func (c *codec) event(e *aquacore.Event) {
	c.int((*int)(&e.Kind))
	c.int(&e.PC)
	c.str(&e.Instr)
	c.str(&e.Detail)
}

func (c *codec) output(o *aquacore.Output) {
	c.str(&o.Port)
	c.float(&o.Volume)
	c.floats(&o.Composition)
}

func (c *codec) measurement(m *aquacore.Measurement) {
	c.int(&m.Node)
	c.str(&m.Port)
	c.float(&m.Volume)
}

func (c *codec) recoveryState(v *RecoveryState) {
	c.int(&v.Retries)
	c.int(&v.Regens)
	c.int(&v.RegenInstrs)
	c.int(&v.Replans)
	c.int(&v.ReplanInstrs)
	c.float(&v.BackoffSeconds)
	sliceOf(c, &v.ReplanBoundaries, 1, (*codec).int)
	sliceOf(c, &v.Incidents, 5, (*codec).incident)
}

func (c *codec) incident(v *Incident) {
	c.int(&v.Kind)
	c.int(&v.PC)
	c.str(&v.Instr)
	c.str(&v.Detail)
	c.int(&v.Retries)
}

func (c *codec) transfer(v *Transfer) {
	c.int(&v.Boundary)
	c.int(&v.PC)
	c.str(&v.Source)
	c.float(&v.Volume)
}

func (c *codec) recoveryAction(v *RecoveryAction) {
	c.str(&v.Action)
	c.int(&v.Boundary)
	c.int(&v.PC)
	c.int(&v.Attempt)
	c.str(&v.Detail)
}

func (c *codec) replan(v *Replan) {
	c.int(&v.Boundary)
	c.int(&v.PC)
	c.str(&v.Source)
	c.float(&v.Need)
	c.float(&v.Have)
	c.str(&v.Method)
	c.float(&v.Scale)
	mapOf(c, &v.Patches, 9, (*codec).int, (*codec).float)
	c.uint32(&v.CertHash)
}

func (c *codec) outcome(v *Outcome) {
	c.str(&v.Status)
	c.str(&v.Err)
	c.int(&v.Boundaries)
}

// fail records the first failure.
func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// need reports whether n more bytes can be decoded, failing when the
// payload is shorter.
func (c *codec) need(n uint64) bool {
	if c.err == nil && uint64(len(c.b)) < n {
		c.fail("payload ends %d bytes short", n-uint64(len(c.b)))
	}
	return c.err == nil
}

// byte codes one byte no greater than limit; what names it in a
// failure.
func (c *codec) byte(p *byte, limit int, what string) {
	switch {
	case !c.dec:
		c.b = append(c.b, *p)
	case !c.need(1):
	case int(c.b[0]) > limit:
		c.fail("%s byte %d (at most %d)", what, c.b[0], limit)
	default:
		*p, c.b = c.b[0], c.b[1:]
	}
}

func (c *codec) bool(p *bool) {
	var v byte
	if *p {
		v = 1
	}
	c.byte(&v, 1, "bool")
	if c.dec {
		*p = v == 1
	}
}

func (c *codec) uvarint(p *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *p)
		return
	}
	if c.err != nil {
		return
	}
	v, n := binary.Uvarint(c.b)
	switch {
	case n == 0:
		c.fail("payload ends inside a varint")
	case n < 0:
		c.fail("varint overflows 64 bits")
	case n > 1 && c.b[n-1] == 0:
		c.fail("non-minimal varint")
	default:
		*p, c.b = v, c.b[n:]
	}
}

// int64 codes a zigzag varint: 0, -1, 1, -2, ... as 0, 1, 2, 3, ...
func (c *codec) int64(p *int64) {
	u := uint64(*p) << 1
	if *p < 0 {
		u = ^u
	}
	c.uvarint(&u)
	if c.dec {
		*p = int64(u >> 1)
		if u&1 != 0 {
			*p = ^*p
		}
	}
}

func (c *codec) int(p *int) {
	v := int64(*p)
	c.int64(&v)
	if c.dec {
		if *p = int(v); int64(*p) != v {
			c.fail("int %d out of range", v)
		}
	}
}

func (c *codec) uint32(p *uint32) {
	v := uint64(*p)
	c.uvarint(&v)
	if c.dec {
		if *p = uint32(v); uint64(*p) != v {
			c.fail("uint32 %d out of range", v)
		}
	}
}

func (c *codec) float(p *float64) {
	if !c.dec {
		if math.IsNaN(*p) || math.IsInf(*p, 0) {
			c.fail("unsupported value %v", *p)
		}
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*p))
		return
	}
	if !c.need(8) {
		return
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(c.b))
	if math.IsNaN(f) || math.IsInf(f, 0) {
		c.fail("non-finite float %v", f)
		return
	}
	*p, c.b = f, c.b[8:]
}

func (c *codec) str(p *string) {
	n := uint64(len(*p))
	c.uvarint(&n)
	if !c.dec {
		c.b = append(c.b, *p...)
	} else if c.need(n) {
		*p, c.b = string(c.b[:n]), c.b[n:]
	}
}

func (c *codec) floats(m *map[string]float64) {
	mapOf(c, m, 9, (*codec).str, (*codec).float)
}

// count codes the length n of a map or slice, -1 for nil, and returns
// it. Decoding, it fails a count of entries, of at least min bytes
// each, that the rest of the payload cannot hold.
func (c *codec) count(n, min int) int {
	u := uint64(n + 1)
	c.uvarint(&u)
	switch {
	case !c.dec:
		return n
	case c.err != nil || u == 0:
		return -1
	case u-1 > uint64(len(c.b)/min):
		c.fail("count %d past the payload", u-1)
		return -1
	}
	return int(u - 1)
}

// opt codes whether the pointer *p is set, allocating its target when
// decoding one that is, and reports whether its fields follow.
func opt[T any](c *codec, p **T) bool {
	set := *p != nil
	c.bool(&set)
	if c.dec && set {
		*p = new(T)
	}
	return set
}

// sliceOf codes a slice whose elements elem codes.
func sliceOf[T any](c *codec, s *[]T, min int, elem func(*codec, *T)) {
	n := -1
	if *s != nil {
		n = len(*s)
	}
	if n = c.count(n, min); c.dec && n >= 0 {
		*s = make([]T, n)
	}
	for i := 0; i < len(*s) && c.err == nil; i++ {
		elem(c, &(*s)[i])
	}
}

// mapOf codes a map in increasing key order.
func mapOf[K cmp.Ordered, V any](c *codec, m *map[K]V, min int, key func(*codec, *K), val func(*codec, *V)) {
	if !c.dec {
		if *m == nil {
			c.count(-1, min)
			return
		}
		keys := make([]K, 0, len(*m))
		for k := range *m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		c.count(len(keys), min)
		for _, k := range keys {
			v := (*m)[k]
			key(c, &k)
			val(c, &v)
		}
		return
	}
	n := c.count(-1, min)
	if n < 0 {
		return
	}
	*m = make(map[K]V, n)
	var prev K
	for i := 0; i < n && c.err == nil; i++ {
		var k K
		var v V
		key(c, &k)
		val(c, &v)
		if i > 0 && k <= prev {
			c.fail("map key %v after %v", k, prev)
		}
		(*m)[k], prev = v, k
	}
}
