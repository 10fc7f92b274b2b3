package recovery_test

import (
	"fmt"
	"reflect"
	"testing"

	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/codegen"
	"aquavol/internal/core"
	"aquavol/internal/faults"
	"aquavol/internal/lang"
	"aquavol/internal/lang/elab"
	recovery "aquavol/internal/recover"
)

func compileGlucose(t *testing.T) (*elab.Program, *core.Plan, *codegen.Result) {
	t.Helper()
	ep, err := lang.Compile(assays.GlucoseSource)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.DAGSolve(ep.Graph, core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := codegen.Generate(ep, ep.Graph, codegen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return ep, plan, cg
}

func newMachine(ep *elab.Program, plan *core.Plan, p faults.Profile, seed int64, trace *[]string) *aquacore.Machine {
	cfg := aquacore.Config{}
	if p.Enabled() {
		cfg.Faults = faults.New(p, seed)
	}
	if trace != nil {
		cfg.Trace = func(e aquacore.TraceEntry) {
			*trace = append(*trace, fmt.Sprintf("%+v", e))
		}
	}
	return machineWith(cfg, ep, plan)
}

// machineWith builds a machine under cfg for the plan, with the
// program's dry inputs loaded.
func machineWith(cfg aquacore.Config, ep *elab.Program, plan *core.Plan) *aquacore.Machine {
	m := aquacore.New(cfg, ep.Graph, aquacore.PlanSource{Plan: plan})
	dry := map[string]float64{}
	for slot, v := range ep.Init {
		dry[ep.Slots[slot]] = v
	}
	m.SetDry(dry)
	return m
}

// With no faults, the recovery wrapper is a no-op: no repairs, and the
// machine result matches a plain Run exactly.
func TestCleanRunCompletes(t *testing.T) {
	ep, plan, cg := compileGlucose(t)
	m := newMachine(ep, plan, faults.Profile{}, 0, nil)
	out := recovery.Run(m, cg.Prog, &recovery.Compiled{Graph: ep.Graph, Clusters: cg.Clusters, VesselOf: cg.VesselOf}, recovery.Options{})
	if out.Status != recovery.Completed {
		t.Fatalf("status = %v, want completed (%s)", out.Status, out.Summary())
	}
	if out.Retries != 0 || out.Regens != 0 || len(out.Incidents) != 0 {
		t.Fatalf("clean run must not repair anything: %s", out.Summary())
	}

	plain, err := newMachine(ep, plan, faults.Profile{}, 0, nil).Run(cg.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Result, plain) {
		t.Error("recovered no-fault result differs from plain Run")
	}
}

// Transient FU failures are repaired by in-place retries.
func TestRetryRecoversTransientFailures(t *testing.T) {
	ep, plan, cg := compileGlucose(t)
	m := newMachine(ep, plan, faults.Profile{FailRate: 0.2}, 1, nil)
	out := recovery.Run(m, cg.Prog, &recovery.Compiled{Graph: ep.Graph, Clusters: cg.Clusters, VesselOf: cg.VesselOf}, recovery.Options{})
	if out.Status == recovery.Aborted {
		t.Fatalf("aborted: %v", out.Err)
	}
	if out.Retries == 0 {
		t.Fatalf("FailRate 0.2 over a glucose run must trigger retries (%s)", out.Summary())
	}
	if out.Status != recovery.Completed {
		t.Errorf("retries should repair every transient failure here: %s", out.Summary())
	}
	if out.BackoffSeconds <= 0 {
		t.Error("retries must spend simulated backoff time")
	}
}

// Dead-volume loss depletes intermediate fluids; the shortfall check must
// regenerate them by re-executing the producer's backward slice, so the
// run completes without a single ran-out event.
func TestRegenRecoversDepletion(t *testing.T) {
	ep, plan, cg := compileGlucose(t)
	m := newMachine(ep, plan, faults.Profile{DeadVolume: 0.5}, 0, nil)
	out := recovery.Run(m, cg.Prog, &recovery.Compiled{Graph: ep.Graph, Clusters: cg.Clusters, VesselOf: cg.VesselOf}, recovery.Options{})
	if out.Status != recovery.Completed {
		t.Fatalf("status = %v, want completed (%s)", out.Status, out.Summary())
	}
	if out.Regens == 0 {
		t.Fatalf("dead volume of 0.5 nl per transport must trigger regeneration (%s)", out.Summary())
	}
	if out.RegenInstrs == 0 {
		t.Error("regenerations must replay instructions")
	}
	for _, e := range m.Events() {
		if e.Kind == aquacore.EventRanOut {
			t.Errorf("shortfall should have been repaired before the draw: %v", e)
		}
	}
}

// Same (listing, plan, seed, profile) ⇒ byte-identical trace and equal
// Outcome — the reproducibility contract of the fault model.
func TestDeterministicOutcome(t *testing.T) {
	ep, plan, cg := compileGlucose(t)
	prof, ok := faults.Preset("moderate")
	if !ok {
		t.Fatal("moderate preset missing")
	}
	run := func() (*recovery.Outcome, []string) {
		var trace []string
		m := newMachine(ep, plan, prof, 7, &trace)
		return recovery.Run(m, cg.Prog, &recovery.Compiled{Graph: ep.Graph, Clusters: cg.Clusters, VesselOf: cg.VesselOf}, recovery.Options{}), trace
	}
	out1, tr1 := run()
	out2, tr2 := run()
	if !reflect.DeepEqual(tr1, tr2) {
		for i := range tr1 {
			if i < len(tr2) && tr1[i] != tr2[i] {
				t.Fatalf("traces diverge at step %d:\n  %s\n  %s", i, tr1[i], tr2[i])
			}
		}
		t.Fatalf("trace lengths differ: %d vs %d", len(tr1), len(tr2))
	}
	if !reflect.DeepEqual(out1, out2) {
		t.Fatalf("outcomes differ:\n  %s\n  %s", out1.Summary(), out2.Summary())
	}
}

// Different seeds must diverge (the injector is actually seeded).
func TestSeedChangesOutcome(t *testing.T) {
	ep, plan, cg := compileGlucose(t)
	prof, _ := faults.Preset("harsh")
	run := func(seed int64) []string {
		var trace []string
		m := newMachine(ep, plan, prof, seed, &trace)
		recovery.Run(m, cg.Prog, &recovery.Compiled{Graph: ep.Graph, Clusters: cg.Clusters, VesselOf: cg.VesselOf}, recovery.Options{})
		return trace
	}
	if reflect.DeepEqual(run(1), run(2)) {
		t.Error("harsh-profile traces identical across seeds 1 and 2")
	}
}

// A machine error (no volume source for an edge-annotated move) aborts
// with the error and a partial result.
func TestAbortOnMachineError(t *testing.T) {
	ep, _, cg := compileGlucose(t)
	m := aquacore.New(aquacore.Config{}, ep.Graph, nil)
	out := recovery.Run(m, cg.Prog, &recovery.Compiled{Graph: ep.Graph, Clusters: cg.Clusters, VesselOf: cg.VesselOf}, recovery.Options{})
	if out.Status != recovery.Aborted {
		t.Fatalf("status = %v, want aborted", out.Status)
	}
	if out.Err == nil {
		t.Error("aborted outcome must carry the machine error")
	}
	if out.Result == nil {
		t.Error("aborted outcome must still carry the partial result")
	}
}

// With retries disabled and every FU attempt failing, the run still
// reaches the end of the program, degraded, with the failures recorded as
// incidents.
func TestDegradedWhenRetryDisabled(t *testing.T) {
	ep, plan, cg := compileGlucose(t)
	m := newMachine(ep, plan, faults.Profile{FailRate: 1}, 0, nil)
	out := recovery.Run(m, cg.Prog, &recovery.Compiled{Graph: ep.Graph, Clusters: cg.Clusters, VesselOf: cg.VesselOf},
		recovery.Options{DisableRetry: true, DisableRegen: true})
	if out.Status != recovery.CompletedDegraded {
		t.Fatalf("status = %v, want completed-degraded (%s)", out.Status, out.Summary())
	}
	if len(out.Incidents) == 0 {
		t.Fatal("unrepaired failures must be recorded as incidents")
	}
	if out.Retries != 0 {
		t.Error("DisableRetry must suppress retries")
	}
}

// Retry budgets cap repair effort: with an always-failing unit the run
// degrades instead of retrying forever. Four retries for each of
// glucose's 20 wet instructions would exceed the run-wide budget, so
// both bounds bind.
func TestRetryBudgetBounds(t *testing.T) {
	ep, plan, cg := compileGlucose(t)
	m := newMachine(ep, plan, faults.Profile{FailRate: 1}, 0, nil)
	out := recovery.Run(m, cg.Prog, &recovery.Compiled{Graph: ep.Graph, Clusters: cg.Clusters, VesselOf: cg.VesselOf},
		recovery.Options{RetriesPerInstr: 4, DisableRegen: true})
	if out.Status != recovery.CompletedDegraded {
		t.Fatalf("status = %v, want completed-degraded (%s)", out.Status, out.Summary())
	}
	if out.Retries != recovery.TotalRetries {
		t.Errorf("retries = %d, want exactly the run-wide budget %d", out.Retries, recovery.TotalRetries)
	}
	for _, inc := range out.Incidents {
		if inc.Retries > 4 {
			t.Errorf("incident %v spent %d retries, over the per-instruction budget 4", inc.Event, inc.Retries)
		}
	}
}
