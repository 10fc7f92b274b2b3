package regen_test

import (
	"testing"

	"aquavol/internal/assays"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/regen"
)

func cfg() core.Config { return core.DefaultConfig() }

// Table 2 shape: glucose needs a handful of regenerations, enzyme tens,
// Enzyme10 thousands; the counts grow by more than an order of magnitude
// at each step (paper: 2 → 85 → 1313).
func TestNaiveCountsShape(t *testing.T) {
	glucose := regen.Execute(assays.GlucoseDAG(), cfg(), regen.ExecOptions{})
	enzyme := regen.Execute(assays.EnzymeDAG(4), cfg(), regen.ExecOptions{})
	enzyme10 := regen.Execute(assays.EnzymeDAG(10), cfg(), regen.ExecOptions{})
	t.Logf("regenerations: glucose=%d enzyme=%d enzyme10=%d",
		glucose.Triggers, enzyme.Triggers, enzyme10.Triggers)

	if glucose.Triggers < 1 || glucose.Triggers > 10 {
		t.Errorf("glucose regens = %d, want a handful (paper: 2)", glucose.Triggers)
	}
	if enzyme.Triggers < 10*glucose.Triggers {
		t.Errorf("enzyme regens = %d, want >> glucose's %d (paper: 85 vs 2)",
			enzyme.Triggers, glucose.Triggers)
	}
	if enzyme10.Triggers < 5*enzyme.Triggers {
		t.Errorf("enzyme10 regens = %d, want >> enzyme's %d (paper: 1313 vs 85)",
			enzyme10.Triggers, enzyme.Triggers)
	}
}

// The diluent and its dilutions dominate the enzyme assay's
// regenerations, as the paper's analysis implies.
func TestNaiveEnzymeBlame(t *testing.T) {
	rep := regen.Execute(assays.EnzymeDAG(4), cfg(), regen.ExecOptions{})
	dilutionRegens := 0
	for name, c := range rep.PerFluid {
		if name == "diluent" || len(name) > 4 && name[3] == '_' { // xxx_dilN
			dilutionRegens += c
		}
	}
	if dilutionRegens < rep.Triggers/2 {
		t.Errorf("diluent+dilutions account for %d of %d regens; expected the majority",
			dilutionRegens, rep.Triggers)
	}
}

// With a feasible DAGSolve plan there are zero regenerations (the paper:
// "With DAGSolve, there are no regenerations").
func TestPlannedZeroRegens(t *testing.T) {
	for _, g := range []*dag.Graph{assays.GlucoseDAG(), assays.Fig2DAG()} {
		plan, err := core.DAGSolve(g, cfg(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Feasible() {
			t.Fatal("plan infeasible")
		}
		rep := regen.CountPlanned(plan)
		if rep.Regenerations != 0 {
			t.Errorf("planned regens = %d, want 0", rep.Regenerations)
		}
	}
	// The managed (cascaded + replicated) enzyme assay too.
	res, err := core.Manage(assays.EnzymeDAG(4), cfg(), core.ManageOptions{SkipLP: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := regen.CountPlanned(res.Plan)
	if rep.Regenerations != 0 {
		t.Errorf("managed enzyme planned regens = %d, want 0", rep.Regenerations)
	}
}

func TestBackwardSlice(t *testing.T) {
	g := assays.Fig2DAG()
	m := g.NodeByName("M")
	slice := regen.BackwardSlice(g, m)
	names := map[string]bool{}
	for _, n := range slice {
		names[n.Name] = true
	}
	for _, want := range []string{"A", "B", "C", "K", "L", "M"} {
		if !names[want] {
			t.Errorf("slice missing %s", want)
		}
	}
	if names["N"] {
		t.Error("slice must not include N (not upstream of M)")
	}
	// Topological: M last.
	if slice[len(slice)-1] != m {
		t.Error("target must close its own backward slice")
	}
}

func TestBackwardSliceInput(t *testing.T) {
	g := assays.Fig2DAG()
	a := g.NodeByName("A")
	slice := regen.BackwardSlice(g, a)
	if len(slice) != 1 || slice[0] != a {
		t.Fatalf("input slice = %v, want just A", slice)
	}
}

// Determinism: the naive count is stable across runs.
func TestNaiveDeterministic(t *testing.T) {
	a := regen.Execute(assays.EnzymeDAG(4), cfg(), regen.ExecOptions{})
	b := regen.Execute(assays.EnzymeDAG(4), cfg(), regen.ExecOptions{})
	if a.Triggers != b.Triggers {
		t.Fatalf("nondeterministic counts: %d vs %d", a.Triggers, b.Triggers)
	}
}
