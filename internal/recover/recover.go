// Package recovery is the runtime companion to the fault model: it wraps
// AquaCore execution with the two repair strategies the paper's runtime
// layer motivates (§3.5, §4.3) plus graceful degradation.
//
//   - Transient functional-unit failures are retried in place with a
//     linearly-growing simulated-time backoff, bounded per instruction and
//     in total.
//   - A detected volume shortfall — the planned draw of the next transfer
//     exceeds what its source vessel actually holds, e.g. after dead-volume
//     or evaporation losses — regenerates the depleted fluid by
//     re-executing the backward slice of its producer (regen.BackwardSlice
//     over the codegen cluster map), exactly the reactive-regeneration
//     mechanism the regen package only counts.
//   - With Options.EnableReplan, a shortfall first tries the cheaper
//     repair: extract the residual DAG (the not-yet-executed remainder,
//     with live vessel volumes as fixed boundary conditions), re-solve it
//     under the same least-count/capacity constraints, and patch the
//     rescaled volumes into the remaining instructions — consuming no
//     fresh reagent at all. Regeneration remains the fallback when the
//     residual solve is infeasible.
//   - When repair budgets run out the run completes anyway and the Outcome
//     reports degradation, with the causal event chain preserved in the
//     machine's event log.
//
// Repairs run in one fixed order, cheapest first. A stalled transfer is
// rescaled (at most once per stall), then regenerated while the round
// and run budgets allow, and otherwise degrades; a transient failure is
// retried while its budgets allow, and otherwise becomes an incident.
//
// The package name is recovery (the directory is internal/recover; the
// package cannot be named after the builtin without shadowing it in every
// importer).
package recovery

import (
	"errors"
	"fmt"

	"aquavol/internal/ais"
	"aquavol/internal/aquacore"
	"aquavol/internal/budget"
	"aquavol/internal/dag"
	"aquavol/internal/faults"
	"aquavol/internal/journal"
	"aquavol/internal/regen"
)

// ErrAborted is the sentinel every aborting Outcome.Err wraps: callers
// match it with errors.Is instead of switching on Status strings, and
// unwrap further for the concrete cause (a machine error, a journal
// write failure, or faults.ErrCrash for a simulated kill).
var ErrAborted = errors.New("recovery: run aborted")

// ErrRegenFailed classifies an incident whose cause was a regeneration
// that itself faulted: the backward-slice replay consumed budget and
// reagent but a fault during the replay kept it from raising the
// source. Distinct from the generic shortfall so callers can tell
// "regeneration was tried and broke" from "regeneration never sufficed".
var ErrRegenFailed = errors.New("recovery: regeneration itself faulted")

// Status classifies how a recovered run ended.
type Status int

const (
	// Completed: every instruction executed, every fault was repaired.
	Completed Status = iota
	// CompletedDegraded: the run reached the end of the program, but at
	// least one fault went unrepaired (see Outcome.Incidents).
	CompletedDegraded
	// Aborted: execution stopped on a machine error (see Outcome.Err).
	Aborted
)

func (s Status) String() string {
	switch s {
	case Completed:
		return "completed"
	case CompletedDegraded:
		return "completed-degraded"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Run-wide repair budgets.
const (
	// totalRetries bounds re-attempts across the whole run.
	totalRetries = 64
	// maxRegens bounds backward-slice re-executions across the run.
	maxRegens = 32
	// maxRegenRounds bounds consecutive regeneration attempts for one
	// stalled transfer; a shortfall that survives that many slice
	// re-executions is structural, not transient.
	maxRegenRounds = 4
	// maxReplans bounds residual re-solves across the run.
	maxReplans = 8
	// backoffSeconds is the simulated idle before the first retry of an
	// instruction; attempt k waits k×backoffSeconds. With at most
	// totalRetries retries, a run idles at most 1+2+…+64 = 2,080 s.
	backoffSeconds = 1.0
)

// Options selects which repairs may run. The zero value selects the
// defaults noted on each field.
type Options struct {
	// RetriesPerInstr bounds re-attempts of a single failed instruction
	// (default 3).
	RetriesPerInstr int
	// DisableRetry turns off in-place retries.
	DisableRetry bool
	// DisableRegen turns off shortfall regeneration.
	DisableRegen bool
	// EnableReplan turns on adaptive replanning: a stalled transfer
	// first tries re-solving the residual DAG around the live vessel
	// volumes and rescaling the remaining instructions, falling back to
	// regeneration only when that solve is infeasible. Off by default —
	// replanning changes downstream volumes, which existing plans may
	// not want.
	EnableReplan bool
	// NoCertify skips the independent certification of every residual
	// replan (internal/certify). On by default as defense-in-depth: a
	// re-solved plan that fails certification counts as a failed
	// rescale, and the stall falls through to regeneration.
	NoCertify bool
	// Journal, when non-nil, receives the durable-execution record
	// stream: planned transfers, repair actions, one step record per
	// instruction boundary, and periodic full snapshots. A journal append
	// failure aborts the run — a write-ahead log that silently stops
	// logging is worse than none.
	Journal *journal.Writer
	// SnapshotEvery is the snapshot cadence in instruction boundaries
	// (default 8; the first snapshot is always written at the starting
	// boundary). Ignored without Journal.
	SnapshotEvery int
	// Crash schedules a simulated process kill at one instruction
	// boundary (chaos testing): the run stops with faults.ErrCrash and —
	// exactly like a real kill — writes neither a final snapshot nor an
	// outcome record. nil never fires.
	Crash *faults.CrashPoint
}

func (o Options) withDefaults() Options {
	if o.RetriesPerInstr == 0 {
		o.RetriesPerInstr = 3
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 8
	}
	return o
}

// Incident is a fault that repair could not (or was not allowed to) fix.
type Incident struct {
	// Event is the unrepaired machine event.
	Event aquacore.Event
	// Retries is how many re-attempts were spent on it before giving up.
	Retries int
}

// Err classifies the incident as a sentinel error chain: an exhausted
// retry budget wraps aquacore.ErrFUUnavailable, an unrepaired shortfall
// wraps aquacore.ErrShortfall. Callers match with errors.Is; the event
// detail stays in the message.
func (i Incident) Err() error {
	switch i.Event.Kind {
	case aquacore.EventFUFailure:
		return fmt.Errorf("%w after %d retries: %s", aquacore.ErrFUUnavailable, i.Retries, i.Event)
	case aquacore.EventRanOut:
		return fmt.Errorf("%w: %s", aquacore.ErrShortfall, i.Event)
	case aquacore.EventRegenFault:
		return fmt.Errorf("%w: %s", ErrRegenFailed, i.Event)
	default:
		return fmt.Errorf("unrepaired fault: %s", i.Event)
	}
}

// Outcome reports a recovered run: the terminal status, the machine
// result, and the repair accounting.
type Outcome struct {
	Status Status
	// Result is the machine result (always set, even on abort, so partial
	// traces and events survive).
	Result *aquacore.Result
	// Retries counts instruction re-attempts across the run.
	Retries int
	// Regens counts backward-slice re-executions.
	Regens int
	// RegenInstrs counts instructions replayed by those re-executions.
	RegenInstrs int
	// Replans counts adaptive residual re-solves applied.
	Replans int
	// ReplanInstrs counts instructions whose volumes those replans
	// rescaled.
	ReplanInstrs int
	// ReplanBoundaries lists the instruction boundaries replans were
	// applied at (crash-resume checks target these).
	ReplanBoundaries []int
	// BackoffSeconds is the total simulated time spent waiting before
	// retries.
	BackoffSeconds float64
	// Incidents lists the faults that went unrepaired.
	Incidents []Incident
	// Err is the machine error that aborted the run (nil otherwise).
	Err error
}

// Summary renders the outcome in one line.
func (o *Outcome) Summary() string {
	s := fmt.Sprintf("%s: %d retries, %d replans (%d instrs rescaled), %d regens (%d instrs replayed), %d unrepaired faults",
		o.Status, o.Retries, o.Replans, o.ReplanInstrs, o.Regens, o.RegenInstrs, len(o.Incidents))
	if o.Err != nil {
		s += fmt.Sprintf(": %v", o.Err)
	}
	return s
}

// Compiled bundles the compile-time artifacts the repair strategies
// need: the managed volume DAG, codegen's node→pc-range cluster map,
// and codegen's fluid→vessel placement map (for live-volume lookups
// during replanning). A nil bundle — or nil fields — degrades
// gracefully: without Graph and Clusters only in-place retry is
// available (e.g. for hand-written listings with no DAG); without
// VesselOf regeneration still works but replanning does not.
type Compiled struct {
	Graph    *dag.Graph
	Clusters map[int][2]int
	VesselOf map[string]string
}

// Run executes prog on m with retry, replanning, and regeneration
// repair, bounded and selected per opts.
//
// Cancellation: the machine's run meter (m.Meter, its
// aquacore.Config.Budget) is polled at every instruction boundary and
// between retry-backoff idles. A tripped meter fail-stops the run
// exactly like a crash — Aborted outcome, typed cause in Outcome.Err,
// and (under Journal) no outcome record, leaving the journal resumable
// so the salvaged prefix completes bit-identically later.
//
// Determinism: repair decisions depend only on machine state and events,
// which are themselves deterministic in (listing, plan, seed, profile), so
// two identical runs produce byte-identical traces and Outcomes.
func Run(m *aquacore.Machine, prog *ais.Program, c *Compiled, opts Options) *Outcome {
	return run(m, prog, c, opts.withDefaults(), 0, 0, &Outcome{})
}

// prepareResume validates a snapshot, restores it onto the fresh machine
// m (fault-PRNG position and measurement log included), and
// reconstructs the accumulated recovery counters: everything a resume
// does short of executing, so the fallback ladder can probe a
// snapshot's usability (and announce the chosen rung) before committing
// to the run.
func prepareResume(m *aquacore.Machine, prog *ais.Program, snap *journal.Snapshot) (*Outcome, error) {
	if snap == nil || snap.Machine == nil {
		return nil, fmt.Errorf("recovery: resume needs a snapshot with machine state")
	}
	if snap.PC < 0 || snap.PC > len(prog.Instrs) {
		return nil, fmt.Errorf("recovery: snapshot pc %d out of range [0,%d]", snap.PC, len(prog.Instrs))
	}
	if snap.Boundary < 0 {
		return nil, fmt.Errorf("recovery: snapshot boundary %d is negative: corrupt", snap.Boundary)
	}
	if err := m.Restore(snap.Machine); err != nil {
		return nil, fmt.Errorf("recovery: restoring machine state: %w", err)
	}
	out := &Outcome{}
	if rs := snap.Recovery; rs != nil {
		out.Retries = rs.Retries
		out.Regens = rs.Regens
		out.RegenInstrs = rs.RegenInstrs
		out.Replans = rs.Replans
		out.ReplanInstrs = rs.ReplanInstrs
		out.ReplanBoundaries = append([]int(nil), rs.ReplanBoundaries...)
		out.BackoffSeconds = rs.BackoffSeconds
		for _, inc := range rs.Incidents {
			out.Incidents = append(out.Incidents, Incident{
				Event: aquacore.Event{
					Kind: aquacore.EventKind(inc.Kind), PC: inc.PC,
					Instr: inc.Instr, Detail: inc.Detail,
				},
				Retries: inc.Retries,
			})
		}
	}
	return out, nil
}

// recoveryState flattens the outcome counters for a journal snapshot.
func recoveryState(out *Outcome) *journal.RecoveryState {
	rs := &journal.RecoveryState{
		Retries:          out.Retries,
		Regens:           out.Regens,
		RegenInstrs:      out.RegenInstrs,
		Replans:          out.Replans,
		ReplanInstrs:     out.ReplanInstrs,
		ReplanBoundaries: append([]int(nil), out.ReplanBoundaries...),
		BackoffSeconds:   out.BackoffSeconds,
	}
	for _, inc := range out.Incidents {
		rs.Incidents = append(rs.Incidents, journal.Incident{
			Kind: int(inc.Event.Kind), PC: inc.Event.PC,
			Instr: inc.Event.Instr, Detail: inc.Event.Detail,
			Retries: inc.Retries,
		})
	}
	return rs
}

// run is the recovery loop, entered at (pc, boundary) with accumulated
// counters in out (zero for fresh runs, a snapshot's for resumes).
func run(m *aquacore.Machine, prog *ais.Program, c *Compiled,
	opt Options, pc, boundary int, out *Outcome) *Outcome {
	jw := opt.Journal
	abort := func(err error) *Outcome {
		out.Err = fmt.Errorf("%w: %w", ErrAborted, err)
		out.Status = Aborted
		out.Result = m.Finalize()
		// A real abort is a terminal state the process lived to record —
		// unlike a crash, which by nature journals nothing. A budget stop
		// fail-stops the same way a crash does: no outcome record, so the
		// journal stays resumable and the salvaged prefix completes
		// bit-identically under a fresh (or absent) meter.
		if jw != nil && !errors.Is(err, faults.ErrCrash) && !budget.IsStop(err) {
			jw.Append(&journal.Record{Kind: journal.KindOutcome, Outcome: &journal.Outcome{
				Status: Aborted.String(), Err: err.Error(), Boundaries: boundary,
			}})
		}
		return out
	}
	canRegen := !opt.DisableRegen && c != nil && c.Graph != nil && c.Clusters != nil
	canReplan := opt.EnableReplan && c != nil && c.Graph != nil && c.Clusters != nil && c.VesselOf != nil
	// Pad shortfall checks by the worst-case metering jitter: a draw can
	// overshoot its planned volume by that fraction, and regenerating one
	// round early is cheaper than an unrepairable mid-draw ran-out.
	jitterPad := 0.0
	if inj := m.Faults(); inj != nil {
		jitterPad = inj.Profile().MeterJitter
	}
	// nextSnap is the boundary the next snapshot is due at: immediately
	// for fresh runs, one full cadence later for resumes (the journal
	// already holds the snapshot this run restored from).
	nextSnap := boundary
	if boundary > 0 {
		nextSnap = boundary + opt.SnapshotEvery
	}

	for pc < len(prog.Instrs) {
		// Poll for cancellation/deadline at the instruction boundary —
		// before the snapshot, so a tripped budget stops without another
		// record and the journal's last frame stays the resume point.
		if err := m.Meter().Err(); err != nil {
			return abort(err)
		}
		in := prog.Instrs[pc]

		// Snapshot BEFORE executing the boundary: the record's (pc,
		// boundary) is exactly where a resumed run re-enters this loop.
		if jw != nil && boundary >= nextSnap {
			nextSnap = boundary + opt.SnapshotEvery
			if err := jw.Append(&journal.Record{Kind: journal.KindSnapshot, Snapshot: &journal.Snapshot{
				Boundary: boundary, PC: pc,
				Machine:  m.Snapshot(),
				Recovery: recoveryState(out),
			}}); err != nil {
				return abort(err)
			}
		}

		// Pre-transfer shortfall check: repair the depleted source before
		// the draw would trip EventRanOut. While the transfer stays
		// stalled, rescale it (re-solve the residual DAG, consuming no
		// fluid), else regenerate its source, else let it degrade.
		if (canRegen || canReplan) && in.Edge >= 0 && in.Edge < len(c.Graph.Edges()) {
			if src, need, ok := m.PlannedTransfer(pc, in); ok {
				need *= 1 + jitterPad
				if jw != nil {
					if err := jw.Append(&journal.Record{Kind: journal.KindTransfer, Transfer: &journal.Transfer{
						Boundary: boundary, PC: pc, Source: src, Volume: need,
					}}); err != nil {
						return abort(err)
					}
				}
				// Rounds are NOT cut short when a replay fails to raise the
				// source: metered reloads re-draw their jitter each round,
				// so repeating is a legitimate re-measurement, and the
				// round bound already caps the cost. Rescaling gets one
				// attempt per stall: a successful one fits the remainder to
				// the live volume by construction, and a failed one will
				// fail the same way again.
				rounds, triedRescale := 0, false
				for need > m.VesselVolume(src)+aquacore.VolTol {
					if canReplan && !triedRescale && out.Replans < maxReplans && replanViable(prog, c.Clusters, pc) {
						triedRescale = true
						ok, err := applyReplan(m, prog, c, pc, boundary, src, need, m.VesselVolume(src), jitterPad, opt.NoCertify, jw, out)
						if err != nil {
							return abort(err)
						}
						// The stalled draw itself was rescaled: re-read it.
						if _, patched, has := m.PlannedTransfer(pc, in); ok && has {
							need = patched * (1 + jitterPad)
						}
						continue
					}
					if !canRegen || rounds >= maxRegenRounds || out.Regens >= maxRegens {
						break
					}
					if err := regenerate(m, prog, c.Graph, c.Clusters, in.Edge, src, pc, out); err != nil {
						return abort(err)
					}
					rounds++
					if jw != nil {
						if err := jw.Append(&journal.Record{Kind: journal.KindRecovery, Recovery: &journal.RecoveryAction{
							Action: "regen", Boundary: boundary, PC: pc, Attempt: rounds,
							Detail: fmt.Sprintf("refill %s toward %.4g nl", src, need),
						}}); err != nil {
							return abort(err)
						}
					}
				}
			}
		}

		// Execute, retrying in place on transient FU failure.
		mark := len(m.Events())
		next, halted, err := m.ExecOne(prog, pc)
		if err != nil {
			return abort(err)
		}
		attempts := 0
		for fail := lastFUFailure(m.Events()[mark:]); fail != nil; fail = lastFUFailure(m.Events()[mark:]) {
			// Cancellation between backoff sleeps: a cancel that lands
			// during one idle is observed before the next, never swallowed
			// by an uncancellable sleep chain.
			if err := m.Meter().Err(); err != nil {
				return abort(err)
			}
			if opt.DisableRetry || attempts >= opt.RetriesPerInstr || out.Retries >= totalRetries {
				out.Incidents = append(out.Incidents, Incident{Event: *fail, Retries: attempts})
				break
			}
			wait := float64(attempts+1) * backoffSeconds
			attempts++
			out.Retries++
			m.Idle(wait)
			out.BackoffSeconds += wait
			m.RecordEvent(aquacore.Event{
				Kind: aquacore.EventRetry, PC: pc, Instr: in.String(),
				Detail: fmt.Sprintf("attempt %d after transient failure (%.3gs backoff)", attempts, wait),
			})
			if jw != nil {
				if jerr := jw.Append(&journal.Record{Kind: journal.KindRecovery, Recovery: &journal.RecoveryAction{
					Action: "retry", Boundary: boundary, PC: pc, Attempt: attempts,
					Detail: fail.Detail,
				}}); jerr != nil {
					return abort(jerr)
				}
			}
			mark = len(m.Events())
			next, halted, err = m.ExecOne(prog, pc)
			if err != nil {
				return abort(err)
			}
		}
		// Faults repair could not address degrade the run.
		for _, e := range m.Events()[mark:] {
			switch e.Kind {
			case aquacore.EventRanOut, aquacore.EventOverflow, aquacore.EventSolveFailed:
				out.Incidents = append(out.Incidents, Incident{Event: e})
			default:
				// Repair bookkeeping (retries, regens, replans) is not an
				// incident; only unrepaired machine faults are.
			}
		}

		if jw != nil {
			var draws uint64
			if inj := m.Faults(); inj != nil {
				draws = inj.Draws()
			}
			if err := jw.Append(&journal.Record{Kind: journal.KindStep, Step: &journal.Step{
				Boundary: boundary, PC: pc, Next: next, Halted: halted,
				Events: len(m.Events()), Draws: draws,
			}}); err != nil {
				return abort(err)
			}
		}
		// The simulated kill strikes after the step record, mimicking a
		// process that died between appends: the journal ends on a clean
		// frame with no outcome record, exactly what a real crash leaves.
		if opt.Crash.Fires(boundary) {
			return abort(fmt.Errorf("%w at boundary %d (pc %d)", faults.ErrCrash, boundary, pc))
		}
		boundary++

		if halted {
			break
		}
		pc = next
	}

	out.Result = m.Finalize()
	if len(out.Incidents) > 0 {
		out.Status = CompletedDegraded
	} else {
		out.Status = Completed
	}
	if jw != nil {
		if err := jw.Append(&journal.Record{Kind: journal.KindOutcome, Outcome: &journal.Outcome{
			Status: out.Status.String(), Boundaries: boundary,
		}}); err != nil {
			// The run itself finished; a failed closing record only costs a
			// needless (and harmless) re-execution on a later resume.
			out.Err = fmt.Errorf("run finished but journal close failed: %w", err)
		}
	}
	return out
}

// regenerate re-executes the backward slice of the producer feeding edge,
// refilling src before the stalled transfer at pc.
func regenerate(m *aquacore.Machine, prog *ais.Program, g *dag.Graph, clusters map[int][2]int,
	edge int, src string, pc int, out *Outcome) error {
	producer := g.Edges()[edge].From
	slice := regen.BackwardSlice(g, producer)
	mark := len(m.Events())
	replayed := 0
	for _, n := range slice {
		cl, ok := clusters[n.ID()]
		if !ok {
			continue // dry or merged nodes emit no cluster of their own
		}
		count, err := runRange(m, prog, cl)
		if err != nil {
			return err
		}
		replayed += count
	}
	out.Regens++
	out.RegenInstrs += replayed
	m.RecordEvent(aquacore.Event{
		Kind: aquacore.EventRegen, PC: pc, Instr: prog.Instrs[pc].String(),
		Detail: fmt.Sprintf("re-executed backward slice of %s (%d nodes, %d instrs) to refill %s",
			producer.Name, len(slice), replayed, src),
	})
	// A regeneration that itself faults is its own failure mode: the
	// replay consumed budget and reagent without (fully) raising the
	// source. Classify it as a distinct incident cause instead of
	// folding it into the generic shortfall path — or, worse, dropping
	// it silently.
	for _, e := range m.Events()[mark:] {
		switch e.Kind {
		case aquacore.EventFUFailure, aquacore.EventRanOut:
			ev := aquacore.Event{
				Kind: aquacore.EventRegenFault, PC: pc, Instr: prog.Instrs[pc].String(),
				Detail: fmt.Sprintf("regeneration of %s faulted: %s", src, e),
			}
			m.RecordEvent(ev)
			out.Incidents = append(out.Incidents, Incident{Event: ev})
		default:
			// Other events during replay (transfers, senses) are the
			// regeneration working as intended, not a fault.
		}
	}
	return nil
}

// runRange replays the half-open pc range cl. Codegen places guard skip
// labels exactly at cluster ends, so a forward jump past the range (or any
// backward jump) terminates the replay.
func runRange(m *aquacore.Machine, prog *ais.Program, cl [2]int) (int, error) {
	count := 0
	for cpc := cl[0]; cpc >= cl[0] && cpc < cl[1]; {
		next, halted, err := m.ExecOne(prog, cpc)
		if err != nil {
			return count, err
		}
		count++
		if halted || next <= cpc {
			break
		}
		cpc = next
	}
	return count, nil
}

// lastFUFailure finds the most recent transient-failure event in evs.
func lastFUFailure(evs []aquacore.Event) *aquacore.Event {
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == aquacore.EventFUFailure {
			return &evs[i]
		}
	}
	return nil
}
