package journal

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"aquavol/internal/aquacore"
	"aquavol/internal/faults"
)

// decoder parses journal payloads without reflection, and only the
// payloads the encoder writes: every field in declaration order under
// its JSON tag, present exactly when the encoder's omitempty rule
// writes it and null exactly where the encoder writes null; map keys
// unique and strictly increasing in the encoder's order (int keys in
// decimal-string order); no whitespace and nothing after the record;
// strings in valid UTF-8 using only the escapes appendString emits;
// ints as plain in-range decimals; floats in the JSON number grammar,
// which is checked before strconv.ParseFloat because ParseFloat also
// takes +1, .5, 1., 0x1p-2 and inf. It declines anything else, and the
// Reader hands that to json.Unmarshal, so what a payload decodes to, or
// the error it fails with, does not depend on which path took it. A
// field added to any record type must be added here too: the oracle
// tests decode every payload they encode and fail when the decoder
// declines one.
//
// Like the encoder, the decoder keeps the last snapshot's event log, as
// the raw bytes of its array and as decoded events. A run's event log
// only grows between snapshots, so when a snapshot's array opens with
// those bytes followed by ',' or ']', the decoder copies the decoded
// events and parses only the ones after them. Each record gets its own
// copy: changing one record's events leaves the next record's alone.
type decoder struct {
	b []byte
	i int
	// bad is set at the first byte the encoder would not have written;
	// every later step is then a no-op and the record is declined.
	bad bool
	// scratch holds the unescaped bytes of a string with escapes.
	scratch []byte

	// evRaw is the last decoded event log's array, from its '[' to the
	// end of its last event; evs are its events.
	evRaw []byte
	evs   []aquacore.Event
}

// record decodes payload, reporting false when it is not a payload the
// encoder writes. The record shares no memory with payload.
func (d *decoder) record(payload []byte) (*Record, bool) {
	d.b, d.i, d.bad = payload, 0, false
	r := &Record{Kind: Kind(d.strAt(`{"kind":`))}
	if d.key(`,"begin":`) {
		r.Begin = d.begin()
	}
	if d.key(`,"step":`) {
		r.Step = d.step()
	}
	if d.key(`,"snapshot":`) {
		r.Snapshot = d.snapshot()
	}
	if d.key(`,"transfer":`) {
		r.Transfer = d.transfer()
	}
	if d.key(`,"recovery":`) {
		r.Recovery = d.recoveryAction()
	}
	if d.key(`,"replan":`) {
		r.Replan = d.replan()
	}
	if d.key(`,"outcome":`) {
		r.Outcome = d.outcome()
	}
	d.lit("}")
	if d.bad || d.i != len(payload) {
		return nil, false
	}
	return r, true
}

func (d *decoder) begin() *Begin {
	v := &Begin{
		Program:       d.strAt(`{"program":`),
		Hash:          uint32(d.uintAt(`,"hash":`, math.MaxUint32)),
		Instrs:        d.intAt(`,"instrs":`),
		Profile:       d.profile(`,"profile":`),
		Seed:          d.int64At(`,"seed":`),
		Margin:        d.optFloat(`,"margin":`),
		Yield:         d.optFloat(`,"yield":`),
		Retries:       d.optInt(`,"retries":`),
		SnapshotEvery: d.optInt(`,"snapshotEvery":`),
		Replan:        d.key(`,"replan":true`),
		CertHash:      uint32(d.optUint(`,"certHash":`, math.MaxUint32)),
	}
	d.lit("}")
	return v
}

// profile decodes a fault profile after the key k.
func (d *decoder) profile(k string) faults.Profile {
	d.lit(k)
	p := faults.Profile{
		MeterJitter: d.floatAt(`{"MeterJitter":`),
		DeadVolume:  d.floatAt(`,"DeadVolume":`),
		EvapRate:    d.floatAt(`,"EvapRate":`),
		SenseNoise:  d.floatAt(`,"SenseNoise":`),
		FailRate:    d.floatAt(`,"FailRate":`),
	}
	d.lit("}")
	return p
}

func (d *decoder) step() *Step {
	v := &Step{
		Boundary: d.intAt(`{"boundary":`),
		PC:       d.intAt(`,"pc":`),
		Next:     d.intAt(`,"next":`),
		Halted:   d.key(`,"halted":true`),
		Events:   d.intAt(`,"events":`),
		Draws:    d.optUint(`,"draws":`, math.MaxUint64),
	}
	d.lit("}")
	return v
}

func (d *decoder) snapshot() *Snapshot {
	v := &Snapshot{
		Boundary: d.intAt(`{"boundary":`),
		PC:       d.intAt(`,"pc":`),
	}
	d.lit(`,"machine":`)
	if !d.key("null") {
		v.Machine = d.machine()
	}
	if d.key(`,"recovery":`) {
		v.Recovery = d.recoveryState()
	}
	d.lit("}")
	return v
}

func (d *decoder) machine() *aquacore.Snapshot {
	s := &aquacore.Snapshot{}
	d.lit(`{"vessels":`)
	if !d.key("null") {
		s.Vessels = d.vessels()
	}
	s.Regs = d.optMap(`,"regs":`)
	if d.key(`,"known":[`) {
		for !d.bad {
			s.Known = append(s.Known, d.str())
			if !d.key(",") {
				break
			}
		}
		d.lit("]")
	}
	s.WetSeconds = d.floatAt(`,"wetSeconds":`)
	s.DrySeconds = d.floatAt(`,"drySeconds":`)
	s.WetInstrs = d.intAt(`,"wetInstrs":`)
	s.DryInstrs = d.intAt(`,"dryInstrs":`)
	s.InputNl = d.optFloat(`,"inputNl":`)
	if d.key(`,"events":`) {
		s.Events = d.eventLog()
	}
	s.Dry = d.optMap(`,"dry":`)
	if d.key(`,"outputs":[`) {
		for !d.bad {
			o := aquacore.Output{
				Port:   d.strAt(`{"Port":`),
				Volume: d.floatAt(`,"Volume":`),
			}
			d.lit(`,"Composition":`)
			if !d.key("null") {
				o.Composition = d.floatMap()
			}
			d.lit("}")
			s.Outputs = append(s.Outputs, o)
			if !d.key(",") {
				break
			}
		}
		d.lit("]")
	}
	s.UnitSeconds = d.optMap(`,"unitSeconds":`)
	s.Drift = d.optMap(`,"drift":`)
	s.Steps = d.intAt(`,"steps":`)
	s.Budget = d.intAt(`,"budget":`)
	s.SolveErrsSeen = d.intAt(`,"solveErrsSeen":`)
	if d.key(`,"patches":`) {
		s.Patches = d.patches()
		d.decline(len(s.Patches) == 0)
	}
	if d.key(`,"measurements":[`) {
		for !d.bad {
			s.Measurements = append(s.Measurements, aquacore.Measurement{
				Node:   d.intAt(`{"node":`),
				Port:   d.strAt(`,"port":`),
				Volume: d.floatAt(`,"volume":`),
			})
			d.lit("}")
			if !d.key(",") {
				break
			}
		}
		d.lit("]")
	}
	if d.key(`,"faults":`) {
		s.Faults = &aquacore.FaultState{
			Profile: d.profile(`{"profile":`),
			Seed:    d.int64At(`,"seed":`),
			Draws:   d.uintAt(`,"draws":`, math.MaxUint64),
		}
		d.lit("}")
	}
	d.lit("}")
	return s
}

// vessels decodes a vessel map that is not null.
func (d *decoder) vessels() map[string]aquacore.VesselState {
	m := map[string]aquacore.VesselState{}
	d.lit("{")
	if d.key("}") {
		return m
	}
	for prev := ""; !d.bad; {
		name := d.str()
		d.decline(len(m) > 0 && name <= prev)
		prev = name
		m[name] = aquacore.VesselState{
			Volume:      d.floatAt(`:{"vol":`),
			Composition: d.optMap(`,"comp":`),
		}
		d.lit("}")
		if !d.key(",") {
			break
		}
	}
	d.lit("}")
	return m
}

// eventLog decodes a non-empty event log, parsing only the events past
// the ones it shares, byte for byte, with the last log decoded here.
func (d *decoder) eventLog() []aquacore.Event {
	if d.bad {
		return nil
	}
	start, rest := d.i, d.b[d.i:]
	n := len(d.evRaw)
	hit := n > 0 && len(rest) > n && (rest[n] == ',' || rest[n] == ']') && bytes.Equal(rest[:n], d.evRaw)
	evs := d.evs[:0]
	switch {
	case hit && rest[n] == ']':
		d.i += n + 1
		return slices.Clone(d.evs)
	case hit:
		evs = d.evs
		d.i += n + 1
	default:
		d.lit("[")
	}
	for !d.bad {
		evs = append(evs, aquacore.Event{
			Kind:   aquacore.EventKind(d.intAt(`{"Kind":`)),
			PC:     d.intAt(`,"PC":`),
			Instr:  d.strAt(`,"Instr":`),
			Detail: d.strAt(`,"Detail":`),
		})
		d.lit("}")
		if !d.key(",") {
			break
		}
	}
	end := d.i
	d.lit("]")
	switch {
	case d.bad:
		d.evRaw, d.evs = d.evRaw[:0], evs[:0]
		return nil
	case hit:
		d.evRaw = append(d.evRaw, d.b[start+n:end]...)
	default:
		d.evRaw = append(d.evRaw[:0], d.b[start:end]...)
	}
	d.evs = evs
	return slices.Clone(evs)
}

// patches decodes a patch map that is not null: int keys, in their
// decimal-string order.
func (d *decoder) patches() map[int]float64 {
	m := map[int]float64{}
	d.lit("{")
	if d.key("}") {
		return m
	}
	for prev := []byte(nil); !d.bad; {
		d.lit(`"`)
		k := d.i
		pc := d.int()
		d.decline(len(m) > 0 && bytes.Compare(d.b[k:d.i], prev) <= 0)
		prev = d.b[k:d.i]
		m[pc] = d.floatAt(`":`)
		if !d.key(",") {
			break
		}
	}
	d.lit("}")
	return m
}

func (d *decoder) recoveryState() *RecoveryState {
	v := &RecoveryState{
		Retries:        d.intAt(`{"retries":`),
		Regens:         d.intAt(`,"regens":`),
		RegenInstrs:    d.intAt(`,"regenInstrs":`),
		Replans:        d.optInt(`,"replans":`),
		ReplanInstrs:   d.optInt(`,"replanInstrs":`),
		BackoffSeconds: d.floatAt(`,"backoffSeconds":`),
	}
	if d.key(`,"replanBoundaries":[`) {
		for !d.bad {
			v.ReplanBoundaries = append(v.ReplanBoundaries, d.int())
			if !d.key(",") {
				break
			}
		}
		d.lit("]")
	}
	if d.key(`,"incidents":[`) {
		for !d.bad {
			v.Incidents = append(v.Incidents, Incident{
				Kind:    d.intAt(`{"kind":`),
				PC:      d.intAt(`,"pc":`),
				Instr:   d.strAt(`,"instr":`),
				Detail:  d.strAt(`,"detail":`),
				Retries: d.optInt(`,"retries":`),
			})
			d.lit("}")
			if !d.key(",") {
				break
			}
		}
		d.lit("]")
	}
	d.lit("}")
	return v
}

func (d *decoder) transfer() *Transfer {
	v := &Transfer{
		Boundary: d.intAt(`{"boundary":`),
		PC:       d.intAt(`,"pc":`),
		Source:   d.strAt(`,"source":`),
		Volume:   d.floatAt(`,"volume":`),
	}
	d.lit("}")
	return v
}

func (d *decoder) recoveryAction() *RecoveryAction {
	v := &RecoveryAction{
		Action:   d.strAt(`{"action":`),
		Boundary: d.intAt(`,"boundary":`),
		PC:       d.intAt(`,"pc":`),
		Attempt:  d.optInt(`,"attempt":`),
		Detail:   d.optStr(`,"detail":`),
	}
	d.lit("}")
	return v
}

func (d *decoder) replan() *Replan {
	v := &Replan{
		Boundary: d.intAt(`{"boundary":`),
		PC:       d.intAt(`,"pc":`),
		Source:   d.strAt(`,"source":`),
		Need:     d.floatAt(`,"need":`),
		Have:     d.floatAt(`,"have":`),
		Method:   d.strAt(`,"method":`),
		Scale:    d.optFloat(`,"scale":`),
	}
	d.lit(`,"patches":`)
	if !d.key("null") {
		v.Patches = d.patches()
	}
	v.CertHash = uint32(d.optUint(`,"certHash":`, math.MaxUint32))
	d.lit("}")
	return v
}

func (d *decoder) outcome() *Outcome {
	v := &Outcome{
		Status:     d.strAt(`{"status":`),
		Err:        d.optStr(`,"err":`),
		Boundaries: d.intAt(`,"boundaries":`),
	}
	d.lit("}")
	return v
}

// floatMap decodes a string-keyed float map that is not null, its keys
// strictly increasing.
func (d *decoder) floatMap() map[string]float64 {
	m := map[string]float64{}
	d.lit("{")
	if d.key("}") {
		return m
	}
	for prev := ""; !d.bad; {
		k := d.str()
		d.decline(len(m) > 0 && k <= prev)
		prev = k
		m[k] = d.floatAt(":")
		if !d.key(",") {
			break
		}
	}
	d.lit("}")
	return m
}

// lit consumes s, which must come next.
func (d *decoder) lit(s string) {
	if !d.key(s) {
		d.bad = true
	}
}

// key consumes s if it comes next, reporting whether it did: how an
// omitempty field is found.
func (d *decoder) key(s string) bool {
	if d.bad || len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// decline marks the record as one the encoder would not have written.
func (d *decoder) decline(cond bool) {
	if cond {
		d.bad = true
	}
}

func (d *decoder) strAt(k string) string { d.lit(k); return d.str() }

func (d *decoder) intAt(k string) int { d.lit(k); return d.int() }

func (d *decoder) int64At(k string) int64 { d.lit(k); return d.signed(math.MaxInt64) }

func (d *decoder) uintAt(k string, limit uint64) uint64 { d.lit(k); return d.uint(limit) }

func (d *decoder) floatAt(k string) float64 { d.lit(k); return d.float() }

// The opt methods decode an omitempty field after its key k: the zero
// value when the key is absent, and a decline when the key holds the
// zero value, which the encoder leaves out.

func (d *decoder) optStr(k string) string {
	if !d.key(k) {
		return ""
	}
	s := d.str()
	d.decline(s == "")
	return s
}

func (d *decoder) optInt(k string) int {
	if !d.key(k) {
		return 0
	}
	n := d.int()
	d.decline(n == 0)
	return n
}

func (d *decoder) optUint(k string, limit uint64) uint64 {
	if !d.key(k) {
		return 0
	}
	n := d.uint(limit)
	d.decline(n == 0)
	return n
}

func (d *decoder) optFloat(k string) float64 {
	if !d.key(k) {
		return 0
	}
	f := d.float()
	d.decline(f == 0)
	return f
}

// optMap decodes a string-keyed float map the encoder writes only when
// it has entries.
func (d *decoder) optMap(k string) map[string]float64 {
	if !d.key(k) {
		return nil
	}
	m := d.floatMap()
	d.decline(len(m) == 0)
	return m
}

// int decodes a plain decimal that fits an int.
func (d *decoder) int() int { return int(d.signed(math.MaxInt)) }

// signed decodes a plain decimal in [-limit-1, limit]; zero has no sign.
func (d *decoder) signed(limit uint64) int64 {
	if d.bad || d.i == len(d.b) || d.b[d.i] != '-' {
		return int64(d.uint(limit))
	}
	d.i++
	n := d.uint(limit + 1)
	d.decline(n == 0)
	return int64(-n)
}

// uint decodes an unsigned plain decimal no greater than limit: no sign,
// no leading zero.
func (d *decoder) uint(limit uint64) uint64 {
	b, i := d.b, d.i
	if d.bad || i == len(b) || b[i] < '0' || b[i] > '9' || (b[i] == '0' && i+1 < len(b) && b[i+1] >= '0' && b[i+1] <= '9') {
		d.bad = true
		return 0
	}
	var n uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		digit := uint64(b[i] - '0')
		if n > (limit-digit)/10 {
			d.bad = true
			return 0
		}
		n = n*10 + digit
	}
	d.i = i
	return n
}

// float decodes a number in the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, that ParseFloat
// takes without a range error.
func (d *decoder) float() float64 {
	b, i := d.b, d.i
	if d.bad {
		return 0
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = digits(b, i); i == -1 {
		d.bad = true
		return 0
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); i == -1 {
			d.bad = true
			return 0
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = digits(b, i); i == -1 {
			d.bad = true
			return 0
		}
	}
	f, err := strconv.ParseFloat(string(b[d.i:i]), 64)
	if err != nil {
		d.bad = true
		return 0
	}
	d.i = i
	return f
}

// digits returns the end of the run of decimal digits at b[i:], or -1
// when there is none.
func digits(b []byte, i int) int {
	j := i
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	if j == i {
		return -1
	}
	return j
}

// str decodes a string as appendString writes it.
func (d *decoder) str() string {
	b := d.b
	if d.bad || d.i == len(b) || b[d.i] != '"' {
		d.bad = true
		return ""
	}
	start := d.i + 1
	for i := start; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return string(b[start:i])
		case c == '\\':
			return d.escaped(start, i)
		case c < utf8.RuneSelf && plain(c):
			i++
		case c < utf8.RuneSelf:
			d.bad = true
			return ""
		default:
			size := runeSize(b[i:])
			if size == 0 {
				d.bad = true
				return ""
			}
			i += size
		}
	}
	d.bad = true
	return ""
}

// escaped finishes decoding a string that opened at start and meets
// its first escape at i.
func (d *decoder) escaped(start, i int) string {
	b := d.b
	out := append(d.scratch[:0], b[start:i]...)
	defer func() { d.scratch = out[:0] }()
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return string(out)
		case c == '\\' && i+1 < len(b):
			switch e := b[i+1]; e {
			case '"', '\\':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := escapedRune(b[i+2:])
				if !ok {
					d.bad = true
					return ""
				}
				out = utf8.AppendRune(out, r)
				i += 4
			default:
				d.bad = true
				return ""
			}
			i += 2
		case c < utf8.RuneSelf && plain(c):
			out = append(out, c)
			i++
		case c < utf8.RuneSelf:
			d.bad = true
			return ""
		default:
			size := runeSize(b[i:])
			if size == 0 {
				d.bad = true
				return ""
			}
			out = append(out, b[i:i+size]...)
			i += size
		}
	}
	d.bad = true
	return ""
}

// plain reports whether appendString writes the ASCII byte c as is.
func plain(c byte) bool {
	return c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// runeSize returns the length of the rune b opens with, or 0 where
// appendString would not have written it raw: invalid UTF-8, U+2028
// and U+2029.
func runeSize(b []byte) int {
	r, size := utf8.DecodeRune(b)
	if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
		return 0
	}
	return size
}

// escapedRune decodes the four hex digits of a \u escape that
// appendString emits: a control byte without a short escape, <, > or
// &, U+FFFD (for invalid UTF-8), U+2028 or U+2029, in lower-case hex.
func escapedRune(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		default:
			return 0, false
		}
	}
	switch r {
	case '\b', '\f', '\n', '\r', '\t':
		return 0, false
	case '<', '>', '&', utf8.RuneError, '\u2028', '\u2029':
		return r, true
	}
	return r, r < 0x20
}
