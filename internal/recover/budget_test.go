package recovery_test

import (
	"errors"
	"path/filepath"
	"testing"

	"aquavol/internal/aquacore"
	"aquavol/internal/budget"
	"aquavol/internal/faults"
	"aquavol/internal/journal"
	recovery "aquavol/internal/recover"
	"aquavol/internal/vfs"
)

// A cancel fired mid-backoff (from the EventRetry hook, which runs right
// after the retry idle) is observed at the next retry-loop boundary: the
// run aborts promptly with the caller-cancelled cause instead of
// spending the rest of its retry budget sleeping.
func TestCancelDuringBackoffAbortsPromptly(t *testing.T) {
	ep, plan, cg := compileGlucose(t)
	meter := budget.New(0)
	m := machineWith(aquacore.Config{
		// FailRate 1: every wet attempt transiently fails, so the retry
		// loop keeps cycling until the cancel lands.
		Faults: faults.New(faults.Profile{FailRate: 1}, 3),
		EventTrace: func(e aquacore.Event) {
			if e.Kind == aquacore.EventRetry {
				meter.Cancel()
			}
		},
		Budget: meter,
	}, ep, plan)

	out := recovery.Run(m, cg.Prog, &recovery.Compiled{Graph: ep.Graph, Clusters: cg.Clusters, VesselOf: cg.VesselOf},
		recovery.Options{})
	if out.Status != recovery.Aborted {
		t.Fatalf("status = %v, want aborted (%s)", out.Status, out.Summary())
	}
	if !errors.Is(out.Err, budget.ErrCancelled) {
		t.Fatalf("Err = %v, want budget.ErrCancelled", out.Err)
	}
	if !errors.Is(out.Err, recovery.ErrAborted) {
		t.Fatalf("Err = %v, must still wrap ErrAborted", out.Err)
	}
	// Prompt: the cancel fired after the first retry's idle; exactly one
	// more boundary (the next retry-loop poll) may pass before the abort.
	if out.Retries > 1 {
		t.Fatalf("spent %d retries after the cancel, want at most 1", out.Retries)
	}
}

// A cancelled caller aborts at the next instruction boundary of a clean
// run too — no faults needed to observe the stop.
func TestCancelAtInstructionBoundary(t *testing.T) {
	ep, plan, cg := compileGlucose(t)
	meter := budget.New(0)
	meter.Cancel()
	m := machineWith(aquacore.Config{Budget: meter}, ep, plan)
	out := recovery.Run(m, cg.Prog, &recovery.Compiled{Graph: ep.Graph, Clusters: cg.Clusters, VesselOf: cg.VesselOf},
		recovery.Options{})
	if out.Status != recovery.Aborted || !errors.Is(out.Err, budget.ErrCancelled) {
		t.Fatalf("pre-cancelled run: status %v err %v, want aborted/ErrCancelled", out.Status, out.Err)
	}
	if out.Result == nil {
		t.Fatal("aborted outcome must still carry the partial machine result")
	}
}

// A budget-cancelled journaled run fail-stops like a crash: no outcome
// record, so the journal remains resumable. (The full resume round-trip
// is exercised by bench E15 and ci.sh; here we pin the record shape.)
func TestCancelWritesNoOutcomeRecord(t *testing.T) {
	ep, plan, cg := compileGlucose(t)
	meter := budget.New(0).CancelAfter(5)
	m := machineWith(aquacore.Config{Budget: meter}, ep, plan)

	path := filepath.Join(t.TempDir(), "cancel.aqj")
	jw, f, err := journal.Create(vfs.OS{}, path, false)
	if err != nil {
		t.Fatal(err)
	}
	out := recovery.Run(m, cg.Prog, &recovery.Compiled{Graph: ep.Graph, Clusters: cg.Clusters, VesselOf: cg.VesselOf},
		recovery.Options{Journal: jw})
	if err := f.Close(); err != nil { //fluidvet:allow syncerr test fixture closes after the run's own syncs
		t.Fatal(err)
	}
	if out.Status != recovery.Aborted || !errors.Is(out.Err, budget.ErrCancelled) {
		t.Fatalf("status %v err %v, want aborted/ErrCancelled", out.Status, out.Err)
	}
	recs, _, _, f2, err := journal.OpenAppend(vfs.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close() //fluidvet:allow syncerr read-only reopen in a test
	sawSnapshot := false
	for _, r := range recs {
		switch r.Kind {
		case journal.KindOutcome:
			t.Fatal("budget stop wrote an outcome record; the journal must stay resumable like after a crash")
		case journal.KindSnapshot:
			sawSnapshot = true
		default:
			// Transfers, steps, recovery actions: fine either way.
		}
	}
	if !sawSnapshot {
		t.Fatal("run wrote no snapshot before the cancel; fixture broken (CancelAfter too early?)")
	}
}
