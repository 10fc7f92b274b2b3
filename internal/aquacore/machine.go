// Package aquacore simulates the AquaCore programmable lab-on-a-chip
// (Fig. 1 of the paper): a wet fluidic datapath — reservoirs, mixers,
// heaters, separators, sensors, and I/O ports connected by channels with
// peristaltic pumps that impose a least-count transport resolution — under
// an electronic control that interprets AIS instructions and is orders of
// magnitude faster than the fluidics.
//
// The simulator stands in for the paper's hardware: it enforces exactly
// the parameters volume management plans against (maximum capacity, least
// count), tracks the composition of every vessel so mix-ratio fidelity can
// be measured, models the wet/dry timing split, and surfaces
// run-time-measured separation volumes to the volume manager through the
// VolumeSource interface (§3.5's run-time volume assignment).
package aquacore

import (
	"fmt"
	"math"
	"sort"

	"aquavol/internal/ais"
	"aquavol/internal/budget"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/faults"
)

// Config parameterizes the machine.
type Config struct {
	// Volume carries the capacity and least-count parameters shared with
	// the volume manager.
	Volume core.Config
	// MoveSeconds is the fluid-transport time per wet move/input/output
	// instruction. 0 selects 1 s.
	MoveSeconds float64
	// SenseSeconds is the sensing time. 0 selects 1 s.
	SenseSeconds float64
	// DrySeconds is the electronic time per dry instruction. 0 selects
	// 1 µs (the paper's orders-of-magnitude-faster control).
	DrySeconds float64
	// SeparationYield is the effluent fraction separations produce at run
	// time (the quantity the paper's hardware measures). 0 selects 0.4.
	SeparationYield float64
	// ConcentrateYield is the volume fraction surviving concentration.
	// 0 selects 0.5.
	ConcentrateYield float64
	// Sense computes a sensor reading from vessel contents. nil selects
	// the total volume in nanoliters (deterministic and plan-checkable).
	Sense func(volume float64, composition map[string]float64, op ais.Opcode) float64
	// Trace, when non-nil, receives one entry per executed instruction
	// with the volumes of the instruction's vessels before and after the
	// step — the concrete replay channel for aisverify findings
	// (fluidvm -trace).
	Trace func(TraceEntry)
	// EventTrace, when non-nil, receives every recorded event (machine
	// faults and externally-recorded repair actions alike) as it happens,
	// so drivers can stream the causal chain live instead of reading the
	// result's event log afterwards (fluidvm -trace).
	EventTrace func(Event)
	// Faults, when non-nil and enabled, injects imperfect fluidics at the
	// same choke points Trace observes: metering jitter and dead-volume
	// loss on transports, evaporation over wet time, sensor noise, and
	// transient FU failures. nil (or a disabled profile) leaves execution
	// bit-identical to the ideal-physics machine. One injector serves
	// exactly one run; its PRNG stream position is machine state.
	Faults *faults.Injector
	// Budget, when non-nil, is charged one work unit per executed
	// instruction, BEFORE the instruction runs: a tripped meter stops
	// execution exactly at an instruction boundary with the machine state
	// untouched by the unexecuted instruction. The meter is config, not
	// machine state — it is never snapshotted, so a journaled run
	// cancelled mid-flight resumes under a fresh meter and completes
	// bit-identically to an uninterrupted run.
	Budget *budget.Meter
}

// TraceEntry reports one executed instruction to Config.Trace.
type TraceEntry struct {
	// Step is the execution-step ordinal (distinct from PC under jumps).
	Step int
	// PC is the instruction index executed.
	PC int
	// Instr is the executed instruction.
	Instr ais.Instr
	// Vessels lists the instruction's vessels (operands plus, for
	// separations, the unit's out/matrix/pusher ports) with their volumes
	// before and after the step.
	Vessels []VesselDelta
}

// VesselDelta is one vessel's volume change across a traced step.
type VesselDelta struct {
	Name      string
	Pre, Post float64
}

func (c Config) withDefaults() Config {
	if c.Volume.MaxCapacity == 0 {
		c.Volume = core.DefaultConfig()
	}
	if c.MoveSeconds == 0 {
		c.MoveSeconds = 1
	}
	if c.SenseSeconds == 0 {
		c.SenseSeconds = 1
	}
	if c.DrySeconds == 0 {
		c.DrySeconds = 1e-6
	}
	if c.SeparationYield == 0 {
		c.SeparationYield = 0.4
	}
	if c.ConcentrateYield == 0 {
		c.ConcentrateYield = 0.5
	}
	return c
}

// VolumeSource is the runtime volume manager the machine consults to
// translate relative volumes into absolute ones, and informs of measured
// volumes (§3.5). Implementations: PlanSource (static assays) and
// StagedSource (run-time partitioned assays).
type VolumeSource interface {
	// EdgeVolume returns the absolute volume (nl) to move along a DAG
	// edge.
	EdgeVolume(edgeID int) (float64, bool)
	// NodeVolume returns the planned produced/loaded volume for a node
	// (used for input loads).
	NodeVolume(nodeID int) (float64, bool)
	// Measured informs the manager of a run-time-measured production.
	Measured(nodeID int, port string, volume float64)
}

// EventKind classifies runtime events.
type EventKind int

const (
	// EventUnderflow is a dispense below the least count.
	EventUnderflow EventKind = iota
	// EventOverflow is a vessel filled beyond capacity.
	EventOverflow
	// EventRanOut is a draw exceeding the source's remaining volume —
	// the failure volume management exists to prevent.
	EventRanOut
	// EventFaultLoss is injected physics removing fluid (dead volume in a
	// transport channel), distinguishing chaos from plan bugs in traces.
	EventFaultLoss
	// EventFUFailure is an injected transient functional-unit failure: the
	// operation did nothing this attempt (the retry-able fault class).
	EventFUFailure
	// EventRetry marks a recovery-runtime re-attempt of a failed
	// instruction.
	EventRetry
	// EventRegen marks a recovery-runtime re-execution of a depleted
	// fluid's backward slice.
	EventRegen
	// EventSolveFailed surfaces a runtime volume-solve error recorded by
	// the volume source (e.g. StagedSource.SolvePart), so a later
	// "missing volume" cannot mask its root cause.
	EventSolveFailed
	// EventReplan marks a recovery-runtime adaptive replan: the residual
	// DAG was re-solved around live vessel volumes and the rescaled
	// volumes were patched into the remaining instructions.
	EventReplan
	// EventRegenFault marks a regeneration replay that itself faulted
	// (ran out or hit FU failures) — a repair that could not restore the
	// plan, classified distinctly from the shortfall it tried to fix.
	EventRegenFault
)

func (k EventKind) String() string {
	switch k {
	case EventUnderflow:
		return "underflow"
	case EventOverflow:
		return "overflow"
	case EventRanOut:
		return "ran-out"
	case EventFaultLoss:
		return "fault-loss"
	case EventFUFailure:
		return "fu-failure"
	case EventRetry:
		return "retry"
	case EventRegen:
		return "regen"
	case EventSolveFailed:
		return "solve-failed"
	case EventReplan:
		return "replan"
	case EventRegenFault:
		return "regen-fault"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one runtime violation.
type Event struct {
	Kind   EventKind
	PC     int
	Instr  string
	Detail string
}

func (e Event) String() string {
	return fmt.Sprintf("%s at pc %d (%s): %s", e.Kind, e.PC, e.Instr, e.Detail)
}

// Output records fluid delivered to an output port.
type Output struct {
	Port        string
	Volume      float64
	Composition map[string]float64
}

// Result summarizes an execution.
type Result struct {
	// WetSeconds and DrySeconds split execution time between the fluidic
	// datapath and the electronic control.
	WetSeconds, DrySeconds float64
	// WetInstrs and DryInstrs count executed instructions per side.
	WetInstrs, DryInstrs int
	// Events lists underflows/overflows/ran-out violations.
	Events []Event
	// Dry holds the final dry-register file (sensed values included).
	Dry map[string]float64
	// Outputs lists fluids delivered to output ports.
	Outputs []Output
	// UnitSeconds attributes fluidic time to the functional unit (or the
	// transport channel, keyed "transport") that spent it, for
	// utilization analysis.
	UnitSeconds map[string]float64
	// InputNl is the total fluid (nl) drawn from input ports across the
	// run, regeneration replays included — the reagent-consumption metric
	// repair strategies are compared on (E13).
	InputNl float64
	// VolumeDrift maps vessel (and output-port) names to the cumulative
	// planned-minus-delivered volume (nl) caused by injected faults:
	// positive entries are fluid lost to jitter, dead volume, and
	// evaporation; negative entries are over-delivery from jitter. nil
	// when no faults were injected.
	VolumeDrift map[string]float64
}

// Clean reports whether execution raised no volume violations.
func (r *Result) Clean() bool { return len(r.Events) == 0 }

// FaultLoss sums the positive drift entries: the total volume injected
// faults removed from the run. Summation is in sorted vessel order so the
// float total is reproducible across runs.
func (r *Result) FaultLoss() float64 {
	names := make([]string, 0, len(r.VolumeDrift))
	for name := range r.VolumeDrift {
		names = append(names, name)
	}
	sort.Strings(names)
	var total float64
	for _, name := range names {
		if d := r.VolumeDrift[name]; d > 0 {
			total += d
		}
	}
	return total
}

// part is one fluid's share of a vessel's contents.
type part struct {
	fluid string
	nl    float64
}

// vessel is any fluid container: reservoir, functional unit, or unit
// output port. Its composition is a short list of parts in the order
// the fluids first arrived; a fluid keeps its part, at zero if drained,
// until the vessel is cleared. Snapshots, the Sense callback and outputs
// see the parts as a fluid-to-nl map.
type vessel struct {
	name  string
	vol   float64
	parts []part
}

// add pours amount nl of composition comp into v.
func (v *vessel) add(amount float64, comp []part) {
	for _, c := range comp {
		i := v.find(c.fluid)
		if i < 0 {
			i = len(v.parts)
			v.parts = append(v.parts, part{fluid: c.fluid})
		}
		v.parts[i].nl += c.nl
	}
	v.vol += amount
}

// find returns the index of fluid's part, or -1.
func (v *vessel) find(fluid string) int {
	for i := range v.parts {
		if v.parts[i].fluid == fluid {
			return i
		}
	}
	return -1
}

// draw removes amount, appending its proportional composition to drawn.
func (v *vessel) draw(amount float64, drawn []part) []part {
	if v.vol <= 0 {
		return drawn
	}
	frac := amount / v.vol
	if frac > 1 {
		frac = 1
	}
	for i := range v.parts {
		take := v.parts[i].nl * frac
		drawn = append(drawn, part{fluid: v.parts[i].fluid, nl: take})
		v.parts[i].nl -= take
	}
	v.vol -= amount
	if v.vol < 1e-12 {
		v.vol = 0
	}
	return drawn
}

func (v *vessel) clear() {
	v.vol = 0
	v.parts = v.parts[:0]
}

// composition returns parts as a fluid-to-nl map (never nil).
func composition(parts []part) map[string]float64 {
	comp := make(map[string]float64, len(parts))
	for _, p := range parts {
		comp[p.fluid] = p.nl
	}
	return comp
}

// Machine executes AIS programs.
type Machine struct {
	cfg      Config
	g        *dag.Graph
	src      VolumeSource
	instrVol ais.VolumeTable
	// patches overlays per-instruction absolute volumes installed at run
	// time by adaptive replanning. Consulted before instrVol and before
	// edge-keyed source lookups: a patched plan overrides the compiled
	// one for the instructions it covers. Snapshot state (crash-resume
	// must reproduce the patched plan bit-identically).
	patches ais.VolumeTable
	vessels map[string]*vessel
	// order holds the vessels in creation order, so per-vessel sweeps
	// (evaporation) are a plain loop.
	order []*vessel
	// drawn is scratch for the composition a transfer draws.
	drawn []part
	regs  map[string]float64
	known map[string]bool
	res   *Result
	// flt is cfg.Faults when enabled, nil otherwise: the single gate every
	// fault hook checks, keeping the faults-off path bit-identical to the
	// ideal machine.
	flt   *faults.Injector
	drift map[string]float64
	// steps/budget carry the execution-step ordinal and instruction budget
	// across ExecOne calls so external drivers share Run's loop guard.
	steps, budget int
	// solveErrsSeen tracks how many source solve errors have already been
	// surfaced as events.
	solveErrsSeen int
	// measLog records every measurement reported to the volume source, in
	// arrival order. Snapshots carry it so Restore can replay the
	// measurements into a fresh source, reconstructing its solved-plan
	// state without serializing the source itself.
	measLog []Measurement
}

// New creates a machine for one program run. g is the volume DAG the
// program's Edge/Node annotations refer to; src translates volumes. Both
// may be nil when running an assembled listing with an attached
// per-instruction volume table (SetVolumeTable).
func New(cfg Config, g *dag.Graph, src VolumeSource) *Machine {
	m := &Machine{
		cfg:     cfg.withDefaults(),
		g:       g,
		src:     src,
		vessels: map[string]*vessel{},
		regs:    map[string]float64{},
		known:   map[string]bool{},
		res:     &Result{Dry: map[string]float64{}, UnitSeconds: map[string]float64{}},
	}
	if m.cfg.Faults.Enabled() {
		m.flt = m.cfg.Faults
		m.drift = map[string]float64{}
	}
	return m
}

// SetVolumeTable attaches per-instruction absolute volumes (the shipped
// companion of a textual AIS listing). Table entries take precedence over
// edge-keyed VolumeSource lookups.
func (m *Machine) SetVolumeTable(t ais.VolumeTable) { m.instrVol = t }

// SetDry presets dry registers (the compile-time-known initial values from
// elaboration).
func (m *Machine) SetDry(values map[string]float64) {
	for k, v := range values {
		m.regs[k] = v
		m.known[k] = true
	}
}

func (m *Machine) vessel(name string) *vessel {
	v, ok := m.vessels[name]
	if !ok {
		v = &vessel{name: name}
		m.vessels[name] = v
		m.order = append(m.order, v)
	}
	return v
}

func operandVessel(o ais.Operand) (string, bool) {
	switch o.Kind {
	case ais.Reservoir:
		return o.Name, true
	case ais.Unit:
		if o.Sub != "" {
			return o.Name + "." + o.Sub, true
		}
		return o.Name, true
	default:
		return "", false
	}
}

func (m *Machine) event(kind EventKind, pc int, in ais.Instr, format string, args ...any) {
	e := Event{Kind: kind, PC: pc, Instr: in.String(), Detail: fmt.Sprintf(format, args...)}
	m.res.Events = append(m.res.Events, e)
	if m.cfg.EventTrace != nil {
		m.cfg.EventTrace(e)
	}
}

// Patch overlays an absolute volume for the instruction at pc,
// overriding the compiled plan (volume table or edge-keyed source).
// Adaptive replanning installs the residual re-solve through it; the
// overlay rides in snapshots so resumed runs see the patched plan.
func (m *Machine) Patch(pc int, vol float64) {
	if m.patches == nil {
		m.patches = ais.VolumeTable{}
	}
	m.patches[pc] = vol
}

// Patches returns a copy of the installed patch overlay (nil when no
// instruction has been patched).
func (m *Machine) Patches() ais.VolumeTable {
	if m.patches == nil {
		return nil
	}
	out := make(ais.VolumeTable, len(m.patches))
	for pc, v := range m.patches {
		out[pc] = v
	}
	return out
}

// VolumeConfig reports the volume-management parameters the machine
// enforces (capacity, least count, safety margin) — the configuration a
// residual re-solve must plan against.
func (m *Machine) VolumeConfig() core.Config { return m.cfg.Volume }

// Run executes the program to completion (or the instruction budget) and
// returns the result.
func (m *Machine) Run(prog *ais.Program) (*Result, error) {
	pc := 0
	for pc < len(prog.Instrs) {
		next, halted, err := m.ExecOne(prog, pc)
		if err != nil {
			return nil, err
		}
		if halted {
			break
		}
		pc = next
	}
	return m.Finalize(), nil
}

// ExecOne executes the single instruction at pc and returns the next pc
// (after jumps) and whether the program halted. It is Run's loop body,
// exported so an external recovery runtime can interleave retries and
// backward-slice re-execution between instructions; the instruction
// budget and step ordinal are machine state shared with Run.
func (m *Machine) ExecOne(prog *ais.Program, pc int) (next int, halted bool, err error) {
	if m.budget == 0 {
		m.budget = 100*len(prog.Instrs) + 10000
	}
	if m.steps > m.budget {
		return 0, false, fmt.Errorf("aquacore: instruction budget exhausted (dry-code loop?)")
	}
	// Charge the cooperative budget before executing: a trip leaves the
	// machine exactly at this instruction boundary, the instruction at pc
	// unexecuted. (Distinct from m.budget above, the anti-runaway step
	// counter, which IS machine state and is snapshotted.)
	if err := m.cfg.Budget.Charge(1); err != nil {
		return 0, false, err
	}
	if pc < 0 || pc >= len(prog.Instrs) {
		return 0, false, fmt.Errorf("aquacore: pc %d out of range [0,%d)", pc, len(prog.Instrs))
	}
	in := prog.Instrs[pc]
	var traced []VesselDelta
	if m.cfg.Trace != nil {
		for _, name := range m.touched(in) {
			d := VesselDelta{Name: name}
			if v, ok := m.vessels[name]; ok {
				d.Pre = v.vol
			}
			traced = append(traced, d)
		}
	}
	next = pc
	wetBefore := m.res.WetSeconds
	jumped, err := m.step(pc, in, prog, &next)
	if err != nil {
		return 0, false, err
	}
	if m.flt != nil {
		m.evaporate(m.res.WetSeconds - wetBefore)
	}
	if m.cfg.Trace != nil {
		for i := range traced {
			if v, ok := m.vessels[traced[i].Name]; ok {
				traced[i].Post = v.vol
			}
		}
		m.cfg.Trace(TraceEntry{Step: m.steps, PC: pc, Instr: in, Vessels: traced})
	}
	m.steps++
	if in.Op == ais.Halt {
		return pc, true, nil
	}
	if !jumped {
		next = pc + 1
	}
	return next, false, nil
}

// Finalize snapshots the final register file into the result and returns
// it. Run calls it automatically; external drivers call it once after
// their own execution loop.
func (m *Machine) Finalize() *Result {
	for k, v := range m.regs {
		if m.known[k] {
			m.res.Dry[k] = v
		}
	}
	if m.drift != nil {
		m.res.VolumeDrift = m.drift
	}
	return m.res
}

// evaporate removes the injected evaporation fraction for dt seconds of
// wet time from every vessel. Deterministic (no PRNG draw), and each
// vessel's loss is computed from its own volume and recorded under its
// own drift key.
func (m *Machine) evaporate(dt float64) {
	frac := m.flt.EvapFraction(dt)
	if frac <= 0 {
		return
	}
	for _, v := range m.order {
		if v.vol <= 0 {
			continue
		}
		loss := v.vol * frac
		m.drawn = v.draw(loss, m.drawn[:0])
		m.drift[v.name] += loss
	}
}

// VesselVolume reports the current volume (nl) held by a named vessel
// (reservoir, unit, or unit port); unknown vessels hold 0. Recovery
// runtimes use it for pre-transfer shortfall checks.
func (m *Machine) VesselVolume(name string) float64 {
	if v, ok := m.vessels[name]; ok {
		return v.vol
	}
	return 0
}

// Faults returns the active fault injector (nil when faults are off).
// Recovery runtimes read its profile to pad shortfall checks by the
// worst-case metering jitter.
func (m *Machine) Faults() *faults.Injector { return m.flt }

// Source returns the volume source the machine draws planned volumes
// from (nil for a listing run against a volume table).
func (m *Machine) Source() VolumeSource { return m.src }

// Events returns the events recorded so far (the live slice, not a
// copy); external drivers diff its length across ExecOne calls to detect
// per-instruction faults.
func (m *Machine) Events() []Event { return m.res.Events }

// RecordEvent appends an externally-generated event (retries,
// regenerations, and replans from a recovery runtime) so the causal
// chain lives in one place.
func (m *Machine) RecordEvent(e Event) {
	m.res.Events = append(m.res.Events, e)
	if m.cfg.EventTrace != nil {
		m.cfg.EventTrace(e)
	}
}

// Idle advances simulated wet time without executing an instruction —
// the recovery runtime's retry backoff. Evaporation (when injected)
// continues during the wait.
func (m *Machine) Idle(seconds float64) {
	if seconds <= 0 {
		return
	}
	m.res.WetSeconds += seconds
	m.res.UnitSeconds["idle"] += seconds
	if m.flt != nil {
		m.evaporate(seconds)
	}
}

// PlannedTransfer reports the planned (pre-fault) source vessel and
// volume of the transfer instruction at pc, resolved by plannedVolume as
// step resolves it. ok is false for non-transfer instructions and for
// whole-vessel moves, whose draw amount is whatever the vessel holds.
func (m *Machine) PlannedTransfer(pc int, in ais.Instr) (src string, vol float64, ok bool) {
	switch in.Op {
	case ais.Move, ais.MoveAbs, ais.Output:
	default:
		return "", 0, false
	}
	if len(in.Operands) < 2 {
		return "", 0, false
	}
	src, ok = operandVessel(in.Operands[1])
	if !ok {
		return "", 0, false
	}
	if vol, ok = m.plannedVolume(pc, in); !ok {
		return "", 0, false
	}
	return src, vol, true
}

// plannedVolume resolves the planned (pre-fault) volume of the transfer
// at pc, checking in order MoveAbs's immediate, the patch overlay, the
// volume table, and the source's volume for the instruction's edge. ok
// is false when none applies: a whole-vessel transfer, or an edge the
// source has no volume for.
func (m *Machine) plannedVolume(pc int, in ais.Instr) (float64, bool) {
	if in.Op == ais.MoveAbs {
		return immOperand(in, 2) * m.cfg.Volume.LeastCount, true
	}
	if v, ok := m.patches[pc]; ok {
		return v, true
	}
	if v, ok := m.instrVol[pc]; ok {
		return v, true
	}
	if in.Edge >= 0 && m.src != nil {
		return m.src.EdgeVolume(in.Edge)
	}
	return 0, false
}

// immOperand returns operand i of in when it is an immediate, else 0.
func immOperand(in ais.Instr, i int) float64 {
	if i < len(in.Operands) && in.Operands[i].Kind == ais.Imm {
		return in.Operands[i].Value
	}
	return 0
}

// underflow raises EventUnderflow for a nonzero transfer below the
// least count; what names the transfer in the event.
func (m *Machine) underflow(pc int, in ais.Instr, what string, vol float64) {
	if vol < m.cfg.Volume.LeastCount-1e-9 && vol > 0 {
		m.event(EventUnderflow, pc, in, "%s of %.4g nl below least count %.4g nl", what, vol, m.cfg.Volume.LeastCount)
	}
}

// clampDraw returns the volume a draw of vol from src actually takes:
// all of it, or — raising EventRanOut — what src holds.
func (m *Machine) clampDraw(pc int, in ais.Instr, srcName string, src *vessel, vol float64) float64 {
	// volTol absorbs serialization rounding (volume tables round to 9
	// significant digits); it is 10⁵× below the least count.
	const volTol = 1e-6
	if vol > src.vol+volTol {
		m.event(EventRanOut, pc, in, "need %.4g nl but %s holds %.4g nl", vol, srcName, src.vol)
		return src.vol
	}
	return vol
}

// measured reports one run-time measurement to the volume source and
// records it for snapshots.
func (m *Machine) measured(node int, port string, vol float64) {
	m.src.Measured(node, port, vol)
	m.measLog = append(m.measLog, Measurement{Node: node, Port: port, Volume: vol})
}

// noteSolveErrors surfaces any volume-solve errors the source recorded
// since the last check as EventSolveFailed events, anchored at the
// measuring instruction that triggered the solve.
func (m *Machine) noteSolveErrors(pc int, in ais.Instr) {
	errs := m.sourceSolveErrors()
	for ; m.solveErrsSeen < len(errs); m.solveErrsSeen++ {
		m.event(EventSolveFailed, pc, in, "runtime volume solve failed: %v", errs[m.solveErrsSeen])
	}
}

// touched lists the vessels a traced instruction can affect: its operand
// vessels plus, for separations, the unit's derived ports.
func (m *Machine) touched(in ais.Instr) []string {
	var names []string
	seen := map[string]bool{}
	add := func(n string) {
		if n != "" && !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for _, o := range in.Operands {
		if n, ok := operandVessel(o); ok {
			add(n)
		}
	}
	if in.Op.IsSeparate() && len(in.Operands) > 0 {
		u := in.Operands[0].Name
		for _, sub := range []string{"out1", "out2", "matrix", "pusher"} {
			add(u + "." + sub)
		}
	}
	return names
}

// minOperands is the operand count below which step would be unable to
// execute the opcode at all. Assembled listings can be malformed (the ISA
// text is hand-editable), so the machine reports a clean error instead of
// indexing out of range; the aisverify structural pass flags the same
// programs at compile time (AIS012).
func minOperands(op ais.Opcode) int {
	switch op {
	case ais.Nop, ais.Halt:
		return 0
	case ais.Mix, ais.Incubate, ais.Concentrate,
		ais.SeparateCE, ais.SeparateSize, ais.SeparateAF, ais.SeparateLC,
		ais.DryNot, ais.DryJump:
		return 1
	default:
		return 2
	}
}

func (m *Machine) step(pc int, in ais.Instr, prog *ais.Program, pcOut *int) (jumped bool, err error) {
	if len(in.Operands) < minOperands(in.Op) {
		return false, fmt.Errorf("aquacore: pc %d: malformed instruction %q: %s needs at least %d operands",
			pc, in, in.Op, minOperands(in.Op))
	}
	cfg := m.cfg
	wet := func(seconds float64) {
		m.res.WetInstrs++
		m.res.WetSeconds += seconds
	}
	attr := func(label string, seconds float64) {
		m.res.UnitSeconds[label] += seconds
	}
	dry := func() {
		m.res.DryInstrs++
		m.res.DrySeconds += cfg.DrySeconds
	}

	switch in.Op {
	case ais.Nop:
		dry()
	case ais.Halt:
	case ais.Input:
		wet(cfg.MoveSeconds)
		attr("transport", cfg.MoveSeconds)
		dstName, _ := operandVessel(in.Operands[0])
		vol := cfg.Volume.MaxCapacity
		if v, ok := m.patches[pc]; ok {
			vol = math.Min(v, cfg.Volume.MaxCapacity)
		} else if in.Node >= 0 && m.src != nil {
			if v, ok := m.src.NodeVolume(in.Node); ok {
				vol = math.Min(v, cfg.Volume.MaxCapacity)
			}
		}
		name := in.Comment
		if name == "" && in.Node >= 0 && m.g != nil {
			name = m.g.Node(in.Node).Name
		}
		if name == "" {
			name = dstName
		}
		if m.flt != nil {
			planned := vol
			vol = math.Min(m.flt.Meter(vol), cfg.Volume.MaxCapacity)
			m.drift[dstName] += planned - vol
		}
		dst := m.vessel(dstName)
		dst.clear()
		dst.add(vol, []part{{fluid: name, nl: vol}})
		m.res.InputNl += vol
	case ais.Move, ais.MoveAbs:
		wet(cfg.MoveSeconds)
		attr("transport", cfg.MoveSeconds)
		dstName, ok := operandVessel(in.Operands[0])
		if !ok {
			return false, fmt.Errorf("aquacore: pc %d: bad move destination", pc)
		}
		srcName, ok := operandVessel(in.Operands[1])
		if !ok {
			return false, fmt.Errorf("aquacore: pc %d: bad move source", pc)
		}
		srcV := m.vessel(srcName)
		vol, metered := m.plannedVolume(pc, in)
		switch {
		case metered:
		case in.Edge >= 0 && m.src == nil:
			return false, fmt.Errorf("aquacore: pc %d: edge-annotated move but no volume source or table", pc)
		case in.Edge >= 0:
			if errs := m.sourceSolveErrors(); len(errs) > 0 {
				return false, fmt.Errorf("%w: pc %d: edge %d: runtime solve failed earlier: %w",
					ErrNoVolume, pc, in.Edge, errs[len(errs)-1])
			}
			return false, fmt.Errorf("%w: pc %d: edge %d %s", ErrNoVolume, pc, in.Edge, m.awaiting(in.Edge))
		default:
			vol = srcV.vol // whole-vessel transfer
		}
		m.underflow(pc, in, "move", vol)
		planned := vol
		if m.flt != nil {
			// Fixed draw order: failure coin first, then metering jitter.
			// Whole-vessel drains are not metered, so no jitter there.
			if m.flt.Fails() {
				m.event(EventFUFailure, pc, in, "transient transport failure: nothing moved from %s to %s", srcName, dstName)
				break
			}
			if metered {
				vol = m.flt.Meter(vol)
			}
		}
		vol = m.clampDraw(pc, in, srcName, srcV, vol)
		m.drawn = srcV.draw(vol, m.drawn[:0])
		delivered := vol
		if m.flt != nil {
			if dead := math.Min(m.flt.Dead(), delivered); dead > 0 {
				scaleComp(m.drawn, (delivered-dead)/delivered)
				delivered -= dead
				m.event(EventFaultLoss, pc, in, "dead volume: %.4g nl lost in the channel to %s", dead, dstName)
			}
			m.drift[dstName] += planned - delivered
		}
		dstV := m.vessel(dstName)
		dstV.add(delivered, m.drawn)
		if dstV.vol > cfg.Volume.MaxCapacity+1e-6 {
			m.event(EventOverflow, pc, in, "%s at %.4g nl exceeds capacity %.4g nl", dstName, dstV.vol, cfg.Volume.MaxCapacity)
		}
	case ais.Output:
		wet(cfg.MoveSeconds)
		attr("transport", cfg.MoveSeconds)
		srcName, ok := operandVessel(in.Operands[1])
		if !ok {
			return false, fmt.Errorf("aquacore: pc %d: bad output source", pc)
		}
		srcV := m.vessel(srcName)
		vol, metered := m.plannedVolume(pc, in)
		if !metered {
			vol = srcV.vol
		}
		m.underflow(pc, in, "output", vol)
		planned := vol
		port := in.Operands[0].Name
		if m.flt != nil {
			if m.flt.Fails() {
				m.event(EventFUFailure, pc, in, "transient transport failure: nothing delivered from %s to %s", srcName, port)
				break
			}
			if metered {
				vol = m.flt.Meter(vol)
			}
		}
		vol = m.clampDraw(pc, in, srcName, srcV, vol)
		m.drawn = srcV.draw(vol, m.drawn[:0])
		delivered := vol
		if m.flt != nil {
			if dead := math.Min(m.flt.Dead(), delivered); dead > 0 {
				scaleComp(m.drawn, (delivered-dead)/delivered)
				delivered -= dead
				m.event(EventFaultLoss, pc, in, "dead volume: %.4g nl lost in the channel to %s", dead, port)
			}
			m.drift[port] += planned - delivered
		}
		m.res.Outputs = append(m.res.Outputs, Output{
			Port: port, Volume: delivered, Composition: composition(m.drawn),
		})
	case ais.Mix:
		wet(cfg.MoveSeconds + immOperand(in, 1))
		attr("transport", cfg.MoveSeconds)
		attr(in.Operands[0].Name, immOperand(in, 1))
		if m.flt != nil && m.flt.Fails() {
			m.event(EventFUFailure, pc, in, "transient FU failure: %s did not run", in.Operands[0].Name)
		}
	case ais.Incubate:
		wet(cfg.MoveSeconds + immOperand(in, 2))
		attr("transport", cfg.MoveSeconds)
		attr(in.Operands[0].Name, immOperand(in, 2))
		if m.flt != nil && m.flt.Fails() {
			m.event(EventFUFailure, pc, in, "transient FU failure: %s did not run", in.Operands[0].Name)
		}
	case ais.Concentrate:
		wet(cfg.MoveSeconds + immOperand(in, 2))
		attr("transport", cfg.MoveSeconds)
		attr(in.Operands[0].Name, immOperand(in, 2))
		if m.flt != nil && m.flt.Fails() {
			// Nothing concentrated, nothing measured: the sample stays in
			// the unit for a retry.
			m.event(EventFUFailure, pc, in, "transient FU failure: %s did not run", in.Operands[0].Name)
			break
		}
		name, _ := operandVessel(in.Operands[0])
		v := m.vessel(name)
		kept := v.vol * cfg.ConcentrateYield
		m.drawn = v.draw(v.vol-kept, m.drawn[:0])
		if in.Node >= 0 && m.src != nil {
			m.measured(in.Node, dag.PortDefault, v.vol)
			m.noteSolveErrors(pc, in)
		}
	case ais.SeparateAF, ais.SeparateLC, ais.SeparateCE, ais.SeparateSize:
		wet(cfg.MoveSeconds + immOperand(in, 1))
		attr("transport", cfg.MoveSeconds)
		attr(in.Operands[0].Name, immOperand(in, 1))
		unit := in.Operands[0].Name
		if m.flt != nil && m.flt.Fails() {
			// Nothing separated, nothing measured: the sample stays in the
			// unit and the staged partitions stay pending for a retry.
			m.event(EventFUFailure, pc, in, "transient FU failure: %s did not run", unit)
			break
		}
		v := m.vessel(unit)
		// Auxiliary matrix/pusher contents do not join the effluent; only
		// the sample separates. For simplicity the whole unit content
		// (sample + pusher) splits by yield, matching the volume DAG's
		// single-input model.
		eff := m.vessel(unit + ".out1")
		waste := m.vessel(unit + ".out2")
		eff.clear()
		waste.clear()
		total := v.vol
		effVol := total * cfg.SeparationYield
		m.drawn = v.draw(effVol, m.drawn[:0])
		eff.add(effVol, m.drawn)
		m.drawn = v.draw(v.vol, m.drawn[:0])
		waste.add(total-effVol, m.drawn)
		// Matrix/pusher vessels consumed.
		m.vessel(unit + ".matrix").clear()
		m.vessel(unit + ".pusher").clear()
		if in.Node >= 0 && m.src != nil {
			m.measured(in.Node, dag.PortEffluent, effVol)
			m.measured(in.Node, dag.PortWaste, total-effVol)
			m.noteSolveErrors(pc, in)
		}
	case ais.SenseOD, ais.SenseFL:
		wet(cfg.SenseSeconds)
		attr(in.Operands[0].Name, cfg.SenseSeconds)
		unitName, _ := operandVessel(in.Operands[0])
		v := m.vessel(unitName)
		var reading float64
		if cfg.Sense != nil {
			reading = cfg.Sense(v.vol, composition(v.parts), in.Op)
		} else {
			reading = v.vol
		}
		if m.flt != nil {
			reading = m.flt.Sense(reading)
		}
		reg := in.Operands[1].Name
		m.regs[reg] = reading
		m.known[reg] = true
		v.clear() // sensing consumes the sample
	case ais.DryMov, ais.DryAdd, ais.DrySub, ais.DryMul, ais.DryDiv,
		ais.DryMod, ais.DryLT, ais.DryLE, ais.DryEQ:
		dry()
		dst := in.Operands[0].Name
		var src float64
		if in.Operands[1].Kind == ais.Imm {
			src = in.Operands[1].Value
		} else {
			name := in.Operands[1].Name
			if !m.known[name] {
				return false, fmt.Errorf("aquacore: pc %d: read of unset dry register %q", pc, name)
			}
			src = m.regs[name]
		}
		if in.Op == ais.DryMov {
			m.regs[dst] = src
			m.known[dst] = true
			break
		}
		if !m.known[dst] {
			return false, fmt.Errorf("aquacore: pc %d: read of unset dry register %q", pc, dst)
		}
		cur := m.regs[dst]
		switch in.Op {
		case ais.DryAdd:
			cur += src
		case ais.DrySub:
			cur -= src
		case ais.DryMul:
			cur *= src
		case ais.DryDiv:
			if src == 0 {
				return false, fmt.Errorf("aquacore: pc %d: dry division by zero", pc)
			}
			cur /= src
		case ais.DryMod:
			if int64(src) == 0 {
				return false, fmt.Errorf("aquacore: pc %d: dry modulo by zero", pc)
			}
			cur = float64(int64(cur) % int64(src))
		case ais.DryLT:
			cur = b2f(cur < src)
		case ais.DryLE:
			cur = b2f(cur <= src)
		case ais.DryEQ:
			cur = b2f(cur == src)
		}
		m.regs[dst] = cur
	case ais.DryNot:
		dry()
		dst := in.Operands[0].Name
		if !m.known[dst] {
			return false, fmt.Errorf("aquacore: pc %d: read of unset dry register %q", pc, dst)
		}
		m.regs[dst] = b2f(m.regs[dst] == 0)
	case ais.DryJZ:
		dry()
		reg := in.Operands[0].Name
		if !m.known[reg] {
			return false, fmt.Errorf("aquacore: pc %d: jump on unset register %q", pc, reg)
		}
		if m.regs[reg] == 0 {
			target, ok := prog.Labels[in.Operands[1].Name]
			if !ok {
				return false, fmt.Errorf("aquacore: pc %d: undefined label %q", pc, in.Operands[1].Name)
			}
			*pcOut = target
			return true, nil
		}
	case ais.DryJump:
		dry()
		target, ok := prog.Labels[in.Operands[0].Name]
		if !ok {
			return false, fmt.Errorf("aquacore: pc %d: undefined label %q", pc, in.Operands[0].Name)
		}
		*pcOut = target
		return true, nil
	default:
		return false, fmt.Errorf("aquacore: pc %d: unimplemented opcode %v", pc, in.Op)
	}
	return false, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// scaleComp scales a drawn composition in place (dead-volume loss).
func scaleComp(comp []part, f float64) {
	for i := range comp {
		comp[i].nl *= f
	}
}

// awaiting says what the partition realizing edge still waits for: the
// measurement of an unknown-volume node, when the source can name it
// (StagedSource can).
func (m *Machine) awaiting(edge int) string {
	src, ok := m.src.(interface {
		Awaiting(edgeID int) (node int, port string, ok bool)
	})
	if !ok {
		return "(runtime plan not ready)"
	}
	node, port, ok := src.Awaiting(edge)
	if !ok {
		return "(runtime plan not ready)"
	}
	what := "measurement"
	if port != dag.PortDefault {
		what = port + " measurement"
	}
	name := ""
	if m.g != nil && m.g.Node(node) != nil {
		name = fmt.Sprintf(" (%s)", m.g.Node(node).Name)
	}
	return fmt.Sprintf("waits for the %s of unknown-volume node %d%s, which never arrived", what, node, name)
}

// sourceSolveErrors returns the volume source's recorded solve errors,
// when it records any (StagedSource does).
func (m *Machine) sourceSolveErrors() []error {
	if se, ok := m.src.(interface{ SolveErrors() []error }); ok {
		return se.SolveErrors()
	}
	return nil
}

// Vessels returns a sorted snapshot of non-empty vessels, for tests and
// debugging.
func (m *Machine) Vessels() []string {
	var out []string
	for _, v := range m.order {
		if v.vol > 1e-9 {
			out = append(out, fmt.Sprintf("%s=%.3fnl", v.name, v.vol))
		}
	}
	sort.Strings(out)
	return out
}
