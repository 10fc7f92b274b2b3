package journal

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"

	"aquavol/internal/aquacore"
	"aquavol/internal/faults"
)

// encoder appends the payload of journal records: exactly the bytes
// json.Marshal produces for a Record, written by hand instead of by
// reflection. Every struct field is emitted in declaration order under
// its JSON tag (or its Go name when untagged) with the same omitempty
// rules; map keys are sorted, int keys in their decimal string order;
// floats use encoding/json's ES6 formatting; strings get its HTML-safe
// escaping; and a NaN or ±Inf anywhere fails the record with the error
// json.Marshal returns. A field added to any record type must be added
// here too: the reflection-driven property test fills every exported
// field and fails until the bytes match json.Marshal's again.
//
// The encoder reuses one payload buffer across records, and it keeps
// the encoded event log and patch overlay of the last snapshot it
// wrote. A run's event log only grows between snapshots, so a snapshot
// encodes only the events appended since the previous one. The cache is
// checked against the record's contents (the common event prefix and
// every patch entry), never trusted: a restored run or a rewritten
// record sequence just re-encodes what differs.
type encoder struct {
	buf []byte
	// err is the first unsupported value met while encoding a record.
	err error
	// keys is scratch for sorting string map keys; nested maps stack
	// their keys on top of their parent's.
	keys []string

	// events is the event log whose encoding evBytes holds: each event
	// followed by a comma, event i starting at evOff[i].
	events  []aquacore.Event
	evBytes []byte
	evOff   []int

	// patches is the patch overlay patchBytes holds encoded, in key
	// order; patchOK reports whether the cache is filled.
	patches    []patchEntry
	patchBytes []byte
	patchOK    bool
}

type patchEntry struct {
	pc  int
	vol float64
}

// record encodes r into the encoder's buffer. The returned slice is
// valid until the next call.
func (e *encoder) record(r *Record) ([]byte, error) {
	e.err = nil
	b := append(e.buf[:0], `{"kind":`...)
	b = appendString(b, string(r.Kind))
	if r.Begin != nil {
		b = e.begin(append(b, `,"begin":`...), r.Begin)
	}
	if r.Step != nil {
		b = appendStep(append(b, `,"step":`...), r.Step)
	}
	if r.Snapshot != nil {
		b = e.snapshot(append(b, `,"snapshot":`...), r.Snapshot)
	}
	if r.Transfer != nil {
		b = e.transfer(append(b, `,"transfer":`...), r.Transfer)
	}
	if r.Recovery != nil {
		b = appendRecoveryAction(append(b, `,"recovery":`...), r.Recovery)
	}
	if r.Replan != nil {
		b = e.replan(append(b, `,"replan":`...), r.Replan)
	}
	if r.Outcome != nil {
		b = appendOutcome(append(b, `,"outcome":`...), r.Outcome)
	}
	e.buf = append(b, '}')
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

func (e *encoder) begin(b []byte, v *Begin) []byte {
	b = appendString(append(b, `{"program":`...), v.Program)
	b = strconv.AppendUint(append(b, `,"hash":`...), uint64(v.Hash), 10)
	b = strconv.AppendInt(append(b, `,"instrs":`...), int64(v.Instrs), 10)
	b = e.profile(append(b, `,"profile":`...), v.Profile)
	b = strconv.AppendInt(append(b, `,"seed":`...), v.Seed, 10)
	if v.Margin != 0 {
		b = e.float(append(b, `,"margin":`...), v.Margin)
	}
	if v.Yield != 0 {
		b = e.float(append(b, `,"yield":`...), v.Yield)
	}
	if v.Retries != 0 {
		b = strconv.AppendInt(append(b, `,"retries":`...), int64(v.Retries), 10)
	}
	if v.SnapshotEvery != 0 {
		b = strconv.AppendInt(append(b, `,"snapshotEvery":`...), int64(v.SnapshotEvery), 10)
	}
	if v.Replan {
		b = append(b, `,"replan":true`...)
	}
	if v.CertHash != 0 {
		b = strconv.AppendUint(append(b, `,"certHash":`...), uint64(v.CertHash), 10)
	}
	return append(b, '}')
}

func (e *encoder) profile(b []byte, p faults.Profile) []byte {
	b = e.float(append(b, `{"MeterJitter":`...), p.MeterJitter)
	b = e.float(append(b, `,"DeadVolume":`...), p.DeadVolume)
	b = e.float(append(b, `,"EvapRate":`...), p.EvapRate)
	b = e.float(append(b, `,"SenseNoise":`...), p.SenseNoise)
	b = e.float(append(b, `,"FailRate":`...), p.FailRate)
	return append(b, '}')
}

func appendStep(b []byte, v *Step) []byte {
	b = strconv.AppendInt(append(b, `{"boundary":`...), int64(v.Boundary), 10)
	b = strconv.AppendInt(append(b, `,"pc":`...), int64(v.PC), 10)
	b = strconv.AppendInt(append(b, `,"next":`...), int64(v.Next), 10)
	if v.Halted {
		b = append(b, `,"halted":true`...)
	}
	b = strconv.AppendInt(append(b, `,"events":`...), int64(v.Events), 10)
	if v.Draws != 0 {
		b = strconv.AppendUint(append(b, `,"draws":`...), v.Draws, 10)
	}
	return append(b, '}')
}

func (e *encoder) snapshot(b []byte, v *Snapshot) []byte {
	b = strconv.AppendInt(append(b, `{"boundary":`...), int64(v.Boundary), 10)
	b = strconv.AppendInt(append(b, `,"pc":`...), int64(v.PC), 10)
	b = append(b, `,"machine":`...)
	if v.Machine == nil {
		b = append(b, "null"...)
	} else {
		b = e.machine(b, v.Machine)
	}
	if v.Recovery != nil {
		b = e.recoveryState(append(b, `,"recovery":`...), v.Recovery)
	}
	return append(b, '}')
}

func (e *encoder) machine(b []byte, s *aquacore.Snapshot) []byte {
	b = append(b, `{"vessels":`...)
	if s.Vessels == nil {
		b = append(b, "null"...)
	} else {
		keys := stackKeys(e, s.Vessels)
		b = append(b, '{')
		for i, name := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			vs := s.Vessels[name]
			b = appendString(b, name)
			b = e.float(append(b, `:{"vol":`...), vs.Volume)
			if len(vs.Composition) > 0 {
				b = e.floatMap(append(b, `,"comp":`...), vs.Composition)
			}
			b = append(b, '}')
		}
		b = append(b, '}')
		e.keys = e.keys[:len(e.keys)-len(keys)]
	}
	if len(s.Regs) > 0 {
		b = e.floatMap(append(b, `,"regs":`...), s.Regs)
	}
	if len(s.Known) > 0 {
		b = append(b, `,"known":[`...)
		for i, name := range s.Known {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, name)
		}
		b = append(b, ']')
	}
	b = e.float(append(b, `,"wetSeconds":`...), s.WetSeconds)
	b = e.float(append(b, `,"drySeconds":`...), s.DrySeconds)
	b = strconv.AppendInt(append(b, `,"wetInstrs":`...), int64(s.WetInstrs), 10)
	b = strconv.AppendInt(append(b, `,"dryInstrs":`...), int64(s.DryInstrs), 10)
	if s.InputNl != 0 {
		b = e.float(append(b, `,"inputNl":`...), s.InputNl)
	}
	if len(s.Events) > 0 {
		b = e.eventLog(append(b, `,"events":`...), s.Events)
	}
	if len(s.Dry) > 0 {
		b = e.floatMap(append(b, `,"dry":`...), s.Dry)
	}
	if len(s.Outputs) > 0 {
		b = append(b, `,"outputs":[`...)
		for i, o := range s.Outputs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(append(b, `{"Port":`...), o.Port)
			b = e.float(append(b, `,"Volume":`...), o.Volume)
			b = e.floatMap(append(b, `,"Composition":`...), o.Composition)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(s.UnitSeconds) > 0 {
		b = e.floatMap(append(b, `,"unitSeconds":`...), s.UnitSeconds)
	}
	if len(s.Drift) > 0 {
		b = e.floatMap(append(b, `,"drift":`...), s.Drift)
	}
	b = strconv.AppendInt(append(b, `,"steps":`...), int64(s.Steps), 10)
	b = strconv.AppendInt(append(b, `,"budget":`...), int64(s.Budget), 10)
	b = strconv.AppendInt(append(b, `,"solveErrsSeen":`...), int64(s.SolveErrsSeen), 10)
	if len(s.Patches) > 0 {
		b = e.patchOverlay(append(b, `,"patches":`...), s.Patches)
	}
	if len(s.Measurements) > 0 {
		b = append(b, `,"measurements":[`...)
		for i, m := range s.Measurements {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"node":`...), int64(m.Node), 10)
			b = appendString(append(b, `,"port":`...), m.Port)
			b = e.float(append(b, `,"volume":`...), m.Volume)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if s.Faults != nil {
		b = e.profile(append(b, `,"faults":{"profile":`...), s.Faults.Profile)
		b = strconv.AppendInt(append(b, `,"seed":`...), s.Faults.Seed, 10)
		b = strconv.AppendUint(append(b, `,"draws":`...), s.Faults.Draws, 10)
		b = append(b, '}')
	}
	return append(b, '}')
}

// eventLog appends a non-empty event log, encoding only the events past
// the prefix it shares with the cached log.
func (e *encoder) eventLog(b []byte, evs []aquacore.Event) []byte {
	same := 0
	for same < len(evs) && same < len(e.events) && evs[same] == e.events[same] {
		same++
	}
	if same < len(e.events) {
		e.evBytes = e.evBytes[:e.evOff[same]]
		e.evOff = e.evOff[:same]
		e.events = e.events[:same]
	}
	for _, ev := range evs[same:] {
		e.evOff = append(e.evOff, len(e.evBytes))
		e.evBytes = strconv.AppendInt(append(e.evBytes, `{"Kind":`...), int64(ev.Kind), 10)
		e.evBytes = strconv.AppendInt(append(e.evBytes, `,"PC":`...), int64(ev.PC), 10)
		e.evBytes = appendString(append(e.evBytes, `,"Instr":`...), ev.Instr)
		e.evBytes = appendString(append(e.evBytes, `,"Detail":`...), ev.Detail)
		e.evBytes = append(e.evBytes, "},"...)
	}
	e.events = append(e.events, evs[same:]...)
	b = append(b, '[')
	b = append(b, e.evBytes[:len(e.evBytes)-1]...)
	return append(b, ']')
}

// patchOverlay appends a snapshot's non-empty patch overlay, reusing the
// cached encoding when every entry matches it bit for bit.
func (e *encoder) patchOverlay(b []byte, patches map[int]float64) []byte {
	if !e.patchOK || len(patches) != len(e.patches) || !samePatches(e.patches, patches) {
		e.patches = sortedPatches(e.patches[:0], patches)
		// A patch that fails to encode fails the record; it must not
		// linger as a cached encoding, even when an earlier field failed
		// the record first.
		first := e.err
		e.err = nil
		e.patchBytes = e.appendPatches(e.patchBytes[:0], e.patches)
		e.patchOK = e.err == nil
		if first != nil {
			e.err = first
		}
	}
	return append(b, e.patchBytes...)
}

// samePatches reports whether every cached entry is in patches with the
// same value bits. It walks the cached entries, in key order, rather
// than the map.
func samePatches(cached []patchEntry, patches map[int]float64) bool {
	for _, p := range cached {
		if v, ok := patches[p.pc]; !ok || math.Float64bits(v) != math.Float64bits(p.vol) {
			return false
		}
	}
	return true
}

// sortedPatches collects a patch map into dst in encoding/json's key
// order: int keys compare as their decimal strings, so 10 sorts before 9.
func sortedPatches(dst []patchEntry, patches map[int]float64) []patchEntry {
	for pc, v := range patches {
		dst = append(dst, patchEntry{pc, v})
	}
	slices.SortFunc(dst, func(x, y patchEntry) int {
		var xs, ys [20]byte
		return bytes.Compare(strconv.AppendInt(xs[:0], int64(x.pc), 10), strconv.AppendInt(ys[:0], int64(y.pc), 10))
	})
	return dst
}

func (e *encoder) appendPatches(b []byte, patches []patchEntry) []byte {
	b = append(b, '{')
	for i, p := range patches {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = strconv.AppendInt(b, int64(p.pc), 10)
		b = e.float(append(b, `":`...), p.vol)
	}
	return append(b, '}')
}

func (e *encoder) recoveryState(b []byte, v *RecoveryState) []byte {
	b = strconv.AppendInt(append(b, `{"retries":`...), int64(v.Retries), 10)
	b = strconv.AppendInt(append(b, `,"regens":`...), int64(v.Regens), 10)
	b = strconv.AppendInt(append(b, `,"regenInstrs":`...), int64(v.RegenInstrs), 10)
	if v.Replans != 0 {
		b = strconv.AppendInt(append(b, `,"replans":`...), int64(v.Replans), 10)
	}
	if v.ReplanInstrs != 0 {
		b = strconv.AppendInt(append(b, `,"replanInstrs":`...), int64(v.ReplanInstrs), 10)
	}
	b = e.float(append(b, `,"backoffSeconds":`...), v.BackoffSeconds)
	if len(v.ReplanBoundaries) > 0 {
		b = append(b, `,"replanBoundaries":[`...)
		for i, n := range v.ReplanBoundaries {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(n), 10)
		}
		b = append(b, ']')
	}
	if len(v.Incidents) > 0 {
		b = append(b, `,"incidents":[`...)
		for i, inc := range v.Incidents {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"kind":`...), int64(inc.Kind), 10)
			b = strconv.AppendInt(append(b, `,"pc":`...), int64(inc.PC), 10)
			b = appendString(append(b, `,"instr":`...), inc.Instr)
			b = appendString(append(b, `,"detail":`...), inc.Detail)
			if inc.Retries != 0 {
				b = strconv.AppendInt(append(b, `,"retries":`...), int64(inc.Retries), 10)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

func (e *encoder) transfer(b []byte, v *Transfer) []byte {
	b = strconv.AppendInt(append(b, `{"boundary":`...), int64(v.Boundary), 10)
	b = strconv.AppendInt(append(b, `,"pc":`...), int64(v.PC), 10)
	b = appendString(append(b, `,"source":`...), v.Source)
	b = e.float(append(b, `,"volume":`...), v.Volume)
	return append(b, '}')
}

func appendRecoveryAction(b []byte, v *RecoveryAction) []byte {
	b = appendString(append(b, `{"action":`...), v.Action)
	b = strconv.AppendInt(append(b, `,"boundary":`...), int64(v.Boundary), 10)
	b = strconv.AppendInt(append(b, `,"pc":`...), int64(v.PC), 10)
	if v.Attempt != 0 {
		b = strconv.AppendInt(append(b, `,"attempt":`...), int64(v.Attempt), 10)
	}
	if v.Detail != "" {
		b = appendString(append(b, `,"detail":`...), v.Detail)
	}
	return append(b, '}')
}

func (e *encoder) replan(b []byte, v *Replan) []byte {
	b = strconv.AppendInt(append(b, `{"boundary":`...), int64(v.Boundary), 10)
	b = strconv.AppendInt(append(b, `,"pc":`...), int64(v.PC), 10)
	b = appendString(append(b, `,"source":`...), v.Source)
	b = e.float(append(b, `,"need":`...), v.Need)
	b = e.float(append(b, `,"have":`...), v.Have)
	b = appendString(append(b, `,"method":`...), v.Method)
	if v.Scale != 0 {
		b = e.float(append(b, `,"scale":`...), v.Scale)
	}
	b = append(b, `,"patches":`...)
	if v.Patches == nil {
		b = append(b, "null"...)
	} else {
		b = e.appendPatches(b, sortedPatches(nil, v.Patches))
	}
	if v.CertHash != 0 {
		b = strconv.AppendUint(append(b, `,"certHash":`...), uint64(v.CertHash), 10)
	}
	return append(b, '}')
}

func appendOutcome(b []byte, v *Outcome) []byte {
	b = appendString(append(b, `{"status":`...), v.Status)
	if v.Err != "" {
		b = appendString(append(b, `,"err":`...), v.Err)
	}
	b = strconv.AppendInt(append(b, `,"boundaries":`...), int64(v.Boundaries), 10)
	return append(b, '}')
}

// floatMap appends a string-keyed float map with its keys sorted; nil
// encodes as null.
func (e *encoder) floatMap(b []byte, m map[string]float64) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	keys := stackKeys(e, m)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = e.float(append(appendString(b, k), ':'), m[k])
	}
	e.keys = e.keys[:len(e.keys)-len(keys)]
	return append(b, '}')
}

// stackKeys pushes m's keys, sorted, onto e.keys and returns them; the
// caller pops them when done.
func stackKeys[V any](e *encoder, m map[string]V) []string {
	stack := e.keys
	base := len(stack)
	for k := range m {
		stack = append(stack, k)
	}
	e.keys = stack
	keys := stack[base:]
	slices.Sort(keys)
	return keys
}

// float appends f as encoding/json does: the shortest representation
// that round-trips, in exponent form below 1e-6 and from 1e21 up, with
// a one-digit negative exponent left unpadded. NaN and ±Inf cannot be
// encoded; the first one met becomes the record's error.
func (e *encoder) float(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return b
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's escaping:
// quotes, backslashes and control bytes escaped, <, > and & written as
// \u escapes, invalid UTF-8 replaced by \ufffd, and U+2028 and U+2029
// escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
