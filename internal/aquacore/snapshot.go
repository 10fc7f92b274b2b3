package aquacore

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"aquavol/internal/faults"
)

// sortedKeys returns m's keys in ascending order: validation walks every
// map deterministically so the reported entry is stable run to run.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Measurement is one run-time measurement reported to the volume source
// (a separation or concentration output). Snapshots carry the full
// measurement log so a restored machine can replay it into a fresh
// source, reconstructing the source's solved-plan state deterministically
// instead of serializing the source itself.
type Measurement struct {
	Node   int     `json:"node"`
	Port   string  `json:"port"`
	Volume float64 `json:"volume"`
}

// VesselState is one vessel's serialized contents.
type VesselState struct {
	Volume float64 `json:"vol"`
	// Composition maps fluid names to their absolute volumes. Zero entries
	// are kept: bit-identical resume requires the exact map contents, not
	// a physically-equivalent one.
	Composition map[string]float64 `json:"comp,omitempty"`
}

// FaultState is the fault injector's serialized state: its construction
// parameters plus the PRNG stream position. A resumed run reconstructs
// the injector from (Profile, Seed) and fast-forwards it Draws draws, so
// the remaining randomness is exactly what the interrupted run would have
// seen.
type FaultState struct {
	Profile faults.Profile `json:"profile"`
	Seed    int64          `json:"seed"`
	Draws   uint64         `json:"draws"`
}

// Snapshot is a full serialization of the machine's mutable state at an
// instruction boundary. Everything affecting subsequent execution is
// included — vessels with exact compositions, the dry register file,
// accumulated result state (times, events, outputs, drift), the
// instruction budget and step ordinal, the measurement log, and the fault
// injector's PRNG position — so restoring it onto a freshly-constructed
// machine and re-executing yields results bit-identical to a run that was
// never interrupted. JSON encoding round-trips every float64 exactly
// (shortest-representation encoding) and sorts map keys, so equal states
// marshal to equal bytes.
type Snapshot struct {
	Vessels map[string]VesselState `json:"vessels"`
	Regs    map[string]float64     `json:"regs,omitempty"`
	// Known lists the defined dry registers, sorted.
	Known []string `json:"known,omitempty"`

	WetSeconds  float64            `json:"wetSeconds"`
	DrySeconds  float64            `json:"drySeconds"`
	WetInstrs   int                `json:"wetInstrs"`
	DryInstrs   int                `json:"dryInstrs"`
	InputNl     float64            `json:"inputNl,omitempty"`
	Events      []Event            `json:"events,omitempty"`
	Dry         map[string]float64 `json:"dry,omitempty"`
	Outputs     []Output           `json:"outputs,omitempty"`
	UnitSeconds map[string]float64 `json:"unitSeconds,omitempty"`
	Drift       map[string]float64 `json:"drift,omitempty"`

	Steps         int `json:"steps"`
	Budget        int `json:"budget"`
	SolveErrsSeen int `json:"solveErrsSeen"`

	// Patches is the replan overlay: per-instruction absolute volumes
	// installed by adaptive replanning. A resume restored from a
	// post-replan snapshot must execute the patched plan, not the
	// compiled one.
	Patches map[int]float64 `json:"patches,omitempty"`

	Measurements []Measurement `json:"measurements,omitempty"`
	Faults       *FaultState   `json:"faults,omitempty"`
}

// Snapshot serializes the machine's mutable state. The machine is not
// consumed; execution can continue (periodic journal snapshots do
// exactly that).
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{
		Vessels:       make(map[string]VesselState, len(m.vessels)),
		WetSeconds:    m.res.WetSeconds,
		DrySeconds:    m.res.DrySeconds,
		WetInstrs:     m.res.WetInstrs,
		DryInstrs:     m.res.DryInstrs,
		InputNl:       m.res.InputNl,
		Steps:         m.steps,
		Budget:        m.budget,
		SolveErrsSeen: m.solveErrsSeen,
		Patches:       m.Patches(),
	}
	for _, v := range m.order {
		s.Vessels[v.name] = VesselState{Volume: v.vol, Composition: composition(v.parts)}
	}
	s.Regs = copyMap(m.regs)
	for name, known := range m.known {
		if known {
			s.Known = append(s.Known, name)
		}
	}
	sort.Strings(s.Known)
	s.Events = append([]Event(nil), m.res.Events...)
	s.Dry = copyMap(m.res.Dry)
	for _, o := range m.res.Outputs {
		s.Outputs = append(s.Outputs, Output{Port: o.Port, Volume: o.Volume, Composition: copyMap(o.Composition)})
	}
	s.UnitSeconds = copyMap(m.res.UnitSeconds)
	s.Drift = copyMap(m.drift)
	s.Measurements = append([]Measurement(nil), m.measLog...)
	if m.flt != nil {
		s.Faults = &FaultState{Profile: m.flt.Profile(), Seed: m.flt.Seed(), Draws: m.flt.Draws()}
	}
	return s
}

// maxDrawAdvance bounds the fault-PRNG fast-forward a snapshot may
// request. AdvanceTo replays the stream draw by draw, so a corrupt Draws
// field (a bit-flipped uint64 can claim 2^63 draws) would otherwise turn
// Restore into an unbounded loop. Real runs draw a handful of times per
// wet instruction; 2^26 covers programs four orders of magnitude larger
// than anything the compiler emits while keeping the worst-case
// fast-forward well under a second.
const maxDrawAdvance = 1 << 26

// validate rejects structurally-broken snapshots — the decoded form of a
// truncated, bit-flipped, or field-dropped record that still parsed as
// JSON. Restore refuses them with an error instead of installing
// poisoned state (or hanging in the PRNG fast-forward), which is what
// lets a resume fall back to an earlier snapshot.
func (s *Snapshot) validate() error {
	if s.Vessels == nil {
		return fmt.Errorf("aquacore: snapshot has no vessel table")
	}
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	// Which broken entry gets reported lands in resume diagnostics, so
	// every map walks in sorted order.
	for _, name := range sortedKeys(s.Vessels) {
		vs := s.Vessels[name]
		if bad(vs.Volume) || vs.Volume < -1e-6 {
			return fmt.Errorf("aquacore: snapshot vessel %q has impossible volume %v", name, vs.Volume)
		}
		for _, fluid := range sortedKeys(vs.Composition) {
			if v := vs.Composition[fluid]; bad(v) {
				return fmt.Errorf("aquacore: snapshot vessel %q composition %q is %v", name, fluid, v)
			}
		}
	}
	for _, name := range sortedKeys(s.Regs) {
		if v := s.Regs[name]; bad(v) {
			return fmt.Errorf("aquacore: snapshot register %q is %v", name, v)
		}
	}
	if s.Steps < 0 || s.Budget < 0 || s.WetInstrs < 0 || s.DryInstrs < 0 || s.SolveErrsSeen < 0 {
		return fmt.Errorf("aquacore: snapshot has negative counters (steps %d, budget %d, wet %d, dry %d, solveErrs %d)",
			s.Steps, s.Budget, s.WetInstrs, s.DryInstrs, s.SolveErrsSeen)
	}
	if bad(s.WetSeconds) || s.WetSeconds < 0 || bad(s.DrySeconds) || s.DrySeconds < 0 {
		return fmt.Errorf("aquacore: snapshot has impossible clock state (wet %v, dry %v)", s.WetSeconds, s.DrySeconds)
	}
	for _, pc := range sortedKeys(s.Patches) {
		if v := s.Patches[pc]; pc < 0 || bad(v) || v < 0 {
			return fmt.Errorf("aquacore: snapshot patch pc %d = %v is impossible", pc, v)
		}
	}
	for i, meas := range s.Measurements {
		if meas.Node < 0 || bad(meas.Volume) || meas.Volume < 0 {
			return fmt.Errorf("aquacore: snapshot measurement %d (node %d, %q, %v) is impossible", i, meas.Node, meas.Port, meas.Volume)
		}
	}
	if s.Faults != nil && s.Faults.Draws > maxDrawAdvance {
		return fmt.Errorf("aquacore: snapshot claims %d fault-PRNG draws (limit %d): corrupt", s.Faults.Draws, maxDrawAdvance)
	}
	return nil
}

// Restore loads a snapshot onto a freshly-constructed machine (same
// Config, graph, and volume source as the snapshotted one). It replays
// the measurement log into the source — reconstructing any staged-plan
// state — and fast-forwards the fault injector's PRNG stream, so
// execution resumed from the restored state is bit-identical to the
// uninterrupted run. Restoring onto a machine that has already executed
// instructions is an error, as is a snapshot that fails validation
// (corrupt records must surface as errors, not installed state).
func (m *Machine) Restore(s *Snapshot) error {
	if m.steps != 0 || len(m.res.Events) != 0 || len(m.measLog) != 0 {
		return fmt.Errorf("aquacore: Restore requires a fresh machine (already executed %d steps)", m.steps)
	}
	if err := s.validate(); err != nil {
		return err
	}
	// Fault-injector stream: same construction parameters, fast-forwarded.
	switch {
	case s.Faults != nil && m.flt == nil:
		return fmt.Errorf("aquacore: snapshot has fault state (%s seed %d) but machine has no injector",
			s.Faults.Profile, s.Faults.Seed)
	case s.Faults == nil && m.flt != nil:
		return fmt.Errorf("aquacore: machine has a fault injector but snapshot has no fault state")
	case s.Faults != nil:
		if m.flt.Profile() != s.Faults.Profile || m.flt.Seed() != s.Faults.Seed {
			return fmt.Errorf("aquacore: fault injector mismatch: machine (%s seed %d) vs snapshot (%s seed %d)",
				m.flt.Profile(), m.flt.Seed(), s.Faults.Profile, s.Faults.Seed)
		}
		if err := m.flt.AdvanceTo(s.Faults.Draws); err != nil {
			return err
		}
	}
	// Replay measurements into the source in arrival order; staged sources
	// re-solve their partitions exactly as the original run did. The
	// restored solveErrsSeen suppresses re-raising already-surfaced solve
	// events.
	if m.src != nil {
		for _, meas := range s.Measurements {
			m.src.Measured(meas.Node, meas.Port, meas.Volume)
		}
	}
	m.measLog = append([]Measurement(nil), s.Measurements...)
	m.solveErrsSeen = s.SolveErrsSeen

	// Vessels and their parts are rebuilt in sorted order: a map keeps
	// no creation order, and none of the per-vessel or per-fluid
	// arithmetic depends on it.
	m.vessels = make(map[string]*vessel, len(s.Vessels))
	m.order = nil
	for _, name := range sortedKeys(s.Vessels) {
		vs := s.Vessels[name]
		v := m.vessel(name)
		v.vol = vs.Volume
		for _, fluid := range sortedKeys(vs.Composition) {
			v.parts = append(v.parts, part{fluid: fluid, nl: vs.Composition[fluid]})
		}
	}
	m.regs = copyMap(s.Regs)
	if m.regs == nil {
		m.regs = map[string]float64{}
	}
	m.known = make(map[string]bool, len(s.Known))
	for _, name := range s.Known {
		m.known[name] = true
	}
	m.res.WetSeconds = s.WetSeconds
	m.res.DrySeconds = s.DrySeconds
	m.res.WetInstrs = s.WetInstrs
	m.res.DryInstrs = s.DryInstrs
	m.res.InputNl = s.InputNl
	m.res.Events = append([]Event(nil), s.Events...)
	m.res.Dry = copyMap(s.Dry)
	if m.res.Dry == nil {
		m.res.Dry = map[string]float64{}
	}
	m.res.Outputs = nil
	for _, o := range s.Outputs {
		m.res.Outputs = append(m.res.Outputs, Output{Port: o.Port, Volume: o.Volume, Composition: copyMap(o.Composition)})
	}
	m.res.UnitSeconds = copyMap(s.UnitSeconds)
	if m.res.UnitSeconds == nil {
		m.res.UnitSeconds = map[string]float64{}
	}
	if s.Drift != nil {
		m.drift = copyMap(s.Drift)
	}
	m.patches = nil
	if len(s.Patches) > 0 {
		m.patches = make(map[int]float64, len(s.Patches))
		for pc, v := range s.Patches {
			m.patches[pc] = v
		}
	}
	m.steps = s.Steps
	m.budget = s.Budget
	return nil
}

// copyMap clones a string-keyed float map, preserving nil-ness.
func copyMap(src map[string]float64) map[string]float64 {
	if src == nil {
		return nil
	}
	dst := make(map[string]float64, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}
