// Package journal is the write-ahead log that makes assay runs durable:
// a length-prefixed, CRC32-framed record stream of execution events
// (instruction-boundary steps, planned transfers, recovery actions)
// interleaved with periodic full machine snapshots, written as execution
// proceeds so a crashed run can resume from its last good state instead
// of re-running from scratch and wasting the reagents already consumed.
//
// # File format
//
// A journal file is an 8-byte magic header ("AQJRNL1\n") followed by
// records. Each record is framed as
//
//	uint32 LE payload length | uint32 LE IEEE-CRC32(payload) | payload
//
// and the payload is a Record envelope in exactly the bytes
// encoding/json's json.Marshal produces for it. A hand encoder
// (encode.go) writes those bytes without reflection, into a buffer the
// Writer reuses, re-encoding only the events a snapshot adds to the
// previous one's event log; json.Marshal is its test oracle and
// encoding/json remains the decoder. A field added to any record type,
// aquacore.Snapshot and the types it nests included, must be added to
// the encoder in the same change: the reflection-driven property test
// fills every exported field and fails until the bytes match
// json.Marshal's again.
//
// The frame makes the two crash failure modes distinguishable on
// read-back:
//
//   - a torn write — the process died mid-append, the file ends inside a
//     frame — surfaces as ErrTornWrite;
//   - corruption — the frame is complete but the CRC or JSON does not
//     check out — surfaces as ErrCorrupt.
//
// Both are recoverable: the reader returns every record up to the last
// good one and reports where and why it stopped, and OpenAppend truncates
// the bad tail so the resumed run appends from a clean boundary. A reader
// over arbitrary bytes never panics (fuzzed).
//
// # Resume semantics
//
// The journal's snapshot records carry the complete machine state
// (aquacore.Snapshot, fault-PRNG position included) plus the recovery
// runtime's counters. Because execution is deterministic in (listing,
// plan, seed, profile), resuming = restore the last snapshot and
// re-execute; the step records after it are advisory (they let tools
// report how far the dead run got, and carry the PRNG position for
// consistency checks). A run killed at any instruction boundary therefore
// finishes with final vessel volumes and an event log bit-identical to an
// uninterrupted run.
package journal

import (
	"errors"
	"fmt"

	"aquavol/internal/aquacore"
	"aquavol/internal/faults"
)

// Sentinel errors for journal read-back. Wrapped with %w at every raise
// site so errors.Is works while the offset/context stays attached.
var (
	// ErrCorrupt is a structurally-complete record that fails validation:
	// CRC mismatch, bad JSON, unknown kind, or a bad file header.
	ErrCorrupt = errors.New("journal: corrupt record")
	// ErrTornWrite is a file ending mid-frame: the writing process died
	// between starting and finishing an append.
	ErrTornWrite = errors.New("journal: torn write at tail")
)

// Kind discriminates record payloads.
type Kind string

const (
	// KindBegin opens a journal: the run's identity and configuration.
	KindBegin Kind = "begin"
	// KindStep marks one completed instruction boundary.
	KindStep Kind = "step"
	// KindSnapshot is a full machine + recovery-state snapshot.
	KindSnapshot Kind = "snapshot"
	// KindTransfer records a planned transfer before it executes.
	KindTransfer Kind = "transfer"
	// KindRecovery records a repair action (retry, regeneration).
	KindRecovery Kind = "recovery"
	// KindReplan records an adaptive replan: the residual DAG was
	// re-solved around live volumes and the patch set installed.
	KindReplan Kind = "replan"
	// KindOutcome closes a journal: the run's terminal status.
	KindOutcome Kind = "outcome"
)

// Record is the envelope every journal entry is encoded as: a kind tag
// plus exactly one non-nil body matching it.
type Record struct {
	Kind     Kind            `json:"kind"`
	Begin    *Begin          `json:"begin,omitempty"`
	Step     *Step           `json:"step,omitempty"`
	Snapshot *Snapshot       `json:"snapshot,omitempty"`
	Transfer *Transfer       `json:"transfer,omitempty"`
	Recovery *RecoveryAction `json:"recovery,omitempty"`
	Replan   *Replan         `json:"replan,omitempty"`
	Outcome  *Outcome        `json:"outcome,omitempty"`
}

// validate checks the envelope is self-consistent: a known kind whose
// matching body (and only it) is present.
func (r *Record) validate() error {
	var present bool
	switch r.Kind {
	case KindBegin:
		present = r.Begin != nil
	case KindStep:
		present = r.Step != nil
	case KindSnapshot:
		present = r.Snapshot != nil
	case KindTransfer:
		present = r.Transfer != nil
	case KindRecovery:
		present = r.Recovery != nil
	case KindReplan:
		present = r.Replan != nil
	case KindOutcome:
		present = r.Outcome != nil
	default:
		return fmt.Errorf("%w: unknown record kind %q", ErrCorrupt, r.Kind)
	}
	if !present {
		return fmt.Errorf("%w: %s record without a %s body", ErrCorrupt, r.Kind, r.Kind)
	}
	n := 0
	for _, body := range [...]bool{
		r.Begin != nil, r.Step != nil, r.Snapshot != nil, r.Transfer != nil,
		r.Recovery != nil, r.Replan != nil, r.Outcome != nil,
	} {
		if body {
			n++
		}
	}
	if n != 1 {
		return fmt.Errorf("%w: %s record with %d bodies", ErrCorrupt, r.Kind, n)
	}
	return nil
}

// Begin is the journal's opening record: everything needed to rebuild
// the run — recompile the assay, reconstruct the machine and injector —
// exactly as the original invocation did. Resume takes its configuration
// from here, not from command-line flags.
type Begin struct {
	// Program is the program name (the assay's, or the listing file's).
	Program string `json:"program"`
	// Hash is the IEEE CRC32 of the canonical AIS listing text; resume
	// refuses a source whose compiled listing hashes differently.
	Hash uint32 `json:"hash"`
	// Instrs is the listing's instruction count (a cheap second check).
	Instrs int `json:"instrs"`
	// Profile and Seed reconstruct the fault injector.
	Profile faults.Profile `json:"profile"`
	Seed    int64          `json:"seed"`
	// Margin and Yield reproduce the compile/machine configuration.
	Margin float64 `json:"margin,omitempty"`
	Yield  float64 `json:"yield,omitempty"`
	// Retries is the per-instruction retry budget of the recovery runtime.
	Retries int `json:"retries,omitempty"`
	// SnapshotEvery is the snapshot cadence in instruction boundaries.
	SnapshotEvery int `json:"snapshotEvery,omitempty"`
	// Replan records whether adaptive replanning was enabled: a resume
	// must re-derive the same repair decisions the original run made.
	Replan bool `json:"replan,omitempty"`
	// CertHash is the certificate hash (certify.PlanHash) of the
	// statically-solved plan the run was certified against. Resume
	// recomputes it from the re-derived plan and refuses to touch the
	// machine on a mismatch: the journal's plan is not the plan that was
	// certified. Zero when the assay has no static plan (staged assays
	// certify part by part at solve time) or certification was disabled.
	CertHash uint32 `json:"certHash,omitempty"`
}

// Step marks one completed instruction boundary of the recovery loop.
type Step struct {
	// Boundary is the 0-based boundary ordinal (main-loop instructions
	// completed before this one are 0..Boundary-1).
	Boundary int `json:"boundary"`
	// PC is the executed instruction; Next is where control goes.
	PC   int `json:"pc"`
	Next int `json:"next"`
	// Halted marks program completion at this boundary.
	Halted bool `json:"halted,omitempty"`
	// Events is the cumulative machine event count after this boundary.
	Events int `json:"events"`
	// Draws is the fault-PRNG stream position after this boundary (0 when
	// faults are off) — the journaled trace of fault draws.
	Draws uint64 `json:"draws,omitempty"`
}

// Snapshot is a full checkpoint: restoring Machine onto a fresh machine
// and re-entering the recovery loop at (PC, Boundary) with the Recovery
// counters continues the run exactly.
type Snapshot struct {
	// Boundary is the next boundary ordinal to execute.
	Boundary int `json:"boundary"`
	// PC is the next instruction to execute.
	PC int `json:"pc"`
	// Machine is the complete machine state at this boundary.
	Machine *aquacore.Snapshot `json:"machine"`
	// Recovery carries the recovery runtime's accumulated counters.
	Recovery *RecoveryState `json:"recovery,omitempty"`
}

// RecoveryState is the recovery runtime's journaled accounting (mirrors
// recover.Outcome's counters; defined here because the recovery package
// imports this one).
type RecoveryState struct {
	Retries        int     `json:"retries"`
	Regens         int     `json:"regens"`
	RegenInstrs    int     `json:"regenInstrs"`
	Replans        int     `json:"replans,omitempty"`
	ReplanInstrs   int     `json:"replanInstrs,omitempty"`
	BackoffSeconds float64 `json:"backoffSeconds"`
	// ReplanBoundaries lists the boundaries replans were applied at.
	ReplanBoundaries []int      `json:"replanBoundaries,omitempty"`
	Incidents        []Incident `json:"incidents,omitempty"`
}

// Incident is one unrepaired fault (recover.Incident flattened for
// serialization).
type Incident struct {
	Kind    int    `json:"kind"` // aquacore.EventKind
	PC      int    `json:"pc"`
	Instr   string `json:"instr"`
	Detail  string `json:"detail"`
	Retries int    `json:"retries,omitempty"`
}

// Transfer records a planned (pre-fault) transfer about to execute.
type Transfer struct {
	Boundary int     `json:"boundary"`
	PC       int     `json:"pc"`
	Source   string  `json:"source"`
	Volume   float64 `json:"volume"`
}

// RecoveryAction records one repair the recovery runtime performed.
type RecoveryAction struct {
	// Action is "retry" or "regen".
	Action   string `json:"action"`
	Boundary int    `json:"boundary"`
	PC       int    `json:"pc"`
	// Attempt is the retry ordinal (retries only).
	Attempt int `json:"attempt,omitempty"`
	// Detail carries the human-readable event detail.
	Detail string `json:"detail,omitempty"`
}

// Replan records one adaptive replanning action: the residual DAG
// around the live vessel volumes was re-solved and the rescaled
// volumes were patched into the remaining instructions. Resume never
// replays it directly — snapshots carry the machine's patch overlay,
// and a resume from an earlier snapshot re-derives the identical replan
// deterministically — but the record makes the repair auditable and
// lets tools reconstruct the patched plan without re-execution.
type Replan struct {
	Boundary int `json:"boundary"`
	PC       int `json:"pc"`
	// Source/Need/Have describe the stalled transfer that triggered the
	// replan: the padded planned draw versus the source's live volume.
	Source string  `json:"source"`
	Need   float64 `json:"need"`
	Have   float64 `json:"have"`
	// Method is the residual solver that produced the patch set
	// ("dagsolve" or "lp"); Scale is DAGSolve's dispensing scale.
	Method string  `json:"method"`
	Scale  float64 `json:"scale,omitempty"`
	// Patches maps instruction pcs to their rescaled absolute volumes.
	Patches map[int]float64 `json:"patches"`
	// CertHash is the certificate hash (certify.ReplanHash) of the
	// residual plan plus its patch set, recorded after the repair passed
	// certification — auditors recompute it to pin the journaled patches
	// to the certified replan.
	CertHash uint32 `json:"certHash,omitempty"`
}

// Outcome closes a journal: the run reached a terminal state in-process
// (completed, completed-degraded, or aborted — not a crash, which by
// nature writes nothing).
type Outcome struct {
	// Status is recover.Status's string form.
	Status string `json:"status"`
	// Err is the abort error text, if any.
	Err string `json:"err,omitempty"`
	// Boundaries is the total number of instruction boundaries executed.
	Boundaries int `json:"boundaries"`
}
