package aquacore_test

import (
	"math"
	"testing"

	"aquavol/internal/ais"
	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/codegen"
	"aquavol/internal/core"
	"aquavol/internal/lang"
	"aquavol/internal/pipeline"
)

// The shipped-artifact path: serialize the listing and the volume table to
// text, parse both back, and execute with no DAG or source available. The
// run must match the in-memory execution.
func TestShippedListingExecution(t *testing.T) {
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
	tab, err := cg.VolumeTable(func(edge int) (float64, bool) {
		return plan.EdgeVolume[edge], true
	})
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip both artifacts through their textual forms.
	prog, err := ais.Assemble(cg.Prog.String())
	if err != nil {
		t.Fatal(err)
	}
	tab2, err := ais.ParseVolumeTable(tab.String())
	if err != nil {
		t.Fatal(err)
	}

	m := aquacore.New(aquacore.Config{}, nil, nil)
	m.SetVolumeTable(tab2)
	res, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("shipped run events: %v", res.Events)
	}

	// Reference: in-memory run with the plan source.
	m2 := aquacore.New(aquacore.Config{}, ep.Graph, aquacore.PlanSource{Plan: plan})
	ref, err := m2.Run(cg.Prog)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range ref.Dry {
		if got := res.Dry[k]; math.Abs(got-v) > 1e-5 {
			t.Errorf("%s = %v shipped vs %v in-memory", k, got, v)
		}
	}
	if res.WetInstrs != ref.WetInstrs {
		t.Errorf("wet instrs %d vs %d", res.WetInstrs, ref.WetInstrs)
	}
}

// A move with an edge annotation but no volume source/table must fail
// loudly rather than guess.
func TestEdgeMoveWithoutVolumesErrors(t *testing.T) {
	ep, err := lang.Compile(assays.GlucoseSource)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := codegen.Generate(ep, ep.Graph, codegen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := aquacore.New(aquacore.Config{}, ep.Graph, nil)
	if _, err := m.Run(cg.Prog); err == nil {
		t.Fatal("expected error for edge-annotated move without volumes")
	}
}

// The volume table covers every edge-annotated instruction.
func TestVolumeTableCoverage(t *testing.T) {
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
	tab, err := cg.VolumeTable(func(edge int) (float64, bool) {
		return plan.EdgeVolume[edge], true
	})
	if err != nil {
		t.Fatal(err)
	}
	for pc, in := range cg.Prog.Instrs {
		_, has := tab[pc]
		if (in.Edge >= 0) != has {
			t.Errorf("pc %d (%s): edge=%d but table entry present=%v", pc, in, in.Edge, has)
		}
	}
	// An unresolvable edge is an error.
	if _, err := cg.VolumeTable(func(int) (float64, bool) { return 0, false }); err == nil {
		t.Fatal("expected error for unresolvable edges")
	}
}

// An output whose volume table entry asks for more than its source
// vessel holds is checked like a move: it raises one ran-out event and
// delivers what the vessel held, not the planned volume. One below the
// least count raises an underflow, as a move does.
func TestShippedOutputOverdrawRunsOut(t *testing.T) {
	ep, err := lang.Compile(`ASSAY out START
fluid a, b, d;
d = MIX a AND b IN RATIOS 1:3 FOR 10;
OUTPUT d;
END`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Build(ep, pipeline.Options{Config: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ais.Assemble(res.Prog.String())
	if err != nil {
		t.Fatal(err)
	}
	// held records what each output's source vessel holds before it runs.
	held := map[int]float64{}
	run := func(tab ais.VolumeTable) *aquacore.Result {
		t.Helper()
		m := aquacore.New(aquacore.Config{Trace: func(e aquacore.TraceEntry) {
			if e.Instr.Op == ais.Output {
				held[e.PC] = e.Vessels[len(e.Vessels)-1].Pre
			}
		}}, nil, nil)
		m.SetDry(codegen.DryInit(ep))
		m.SetVolumeTable(tab)
		r, err := m.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	tab, err := ais.ParseVolumeTable(res.Volumes.String())
	if err != nil {
		t.Fatal(err)
	}
	if r := run(tab); !r.Clean() {
		t.Fatalf("shipped run events: %v", r.Events)
	}
	pc, nth := -1, 0
	for p, in := range prog.Instrs {
		if _, ok := tab[p]; ok && in.Op == ais.Output {
			pc = p
			break
		}
		if in.Op == ais.Output {
			nth++
		}
	}
	if pc < 0 {
		t.Fatal("listing has no output with a volume table entry")
	}
	tab[pc] = held[pc] + 5
	r := run(tab)
	if len(r.Events) != 1 || r.Events[0].Kind != aquacore.EventRanOut || r.Events[0].PC != pc {
		t.Fatalf("events %v, want one ran-out at pc %d", r.Events, pc)
	}
	if got := r.Outputs[nth].Volume; math.Abs(got-held[pc]) > 1e-9 {
		t.Errorf("output delivered %.6g nl, want the %.6g nl its vessel held", got, held[pc])
	}
	tab[pc] = core.DefaultConfig().LeastCount / 2
	r = run(tab)
	if len(r.Events) != 1 || r.Events[0].Kind != aquacore.EventUnderflow || r.Events[0].PC != pc {
		t.Fatalf("events %v, want one underflow at pc %d", r.Events, pc)
	}
}
