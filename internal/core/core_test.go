package core_test

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"aquavol/internal/assays"
	"aquavol/internal/core"
	"aquavol/internal/dag"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b)) }

func cfg() core.Config { return core.DefaultConfig() }

// E1 (Fig. 5): DAGSolve on the Fig. 2 assay reproduces the paper's Vnorms
// and dispensed volumes.
func TestDAGSolveFigure2(t *testing.T) {
	g := assays.Fig2DAG()
	plan, err := core.DAGSolve(g, cfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible() {
		t.Fatalf("plan infeasible: %v", plan.Underflows)
	}
	wantVnorm := map[string]float64{
		"A": 2.0 / 15, "B": 46.0 / 45, "C": 38.0 / 45,
		"K": 2.0 / 3, "L": 11.0 / 15, "M": 1, "N": 1,
	}
	for name, want := range wantVnorm {
		n := g.NodeByName(name)
		if got := plan.NodeVnorm[n.ID()]; !approx(got, want) {
			t.Errorf("Vnorm(%s) = %v, want %v", name, got, want)
		}
	}
	// Scale normalizes B (the max Vnorm) to 100 nl.
	b := g.NodeByName("B")
	if got := plan.NodeVolume[b.ID()]; !approx(got, 100) {
		t.Errorf("volume(B) = %v, want 100", got)
	}
	// Paper Fig. 5(b) values (rounded in the figure): A≈13, K≈65, and
	// edge volumes ≈52 (B→K), ≈48 (B→L), ≈24 (C→L), ≈59 (C→N).
	wantVol := map[string]float64{
		"A": 600.0 / 46, "K": 3000.0 / 46, "C": 3800.0 / 46,
		"L": 3300.0 / 46, "M": 4500.0 / 46, "N": 4500.0 / 46,
	}
	for name, want := range wantVol {
		n := g.NodeByName(name)
		if got := plan.NodeVolume[n.ID()]; !approx(got, want) {
			t.Errorf("volume(%s) = %v, want %v", name, got, want)
		}
	}
	edgeVol := func(from, to string) float64 {
		for _, e := range g.Edges() {
			if e.From.Name == from && e.To.Name == to {
				return plan.EdgeVolume[e.ID()]
			}
		}
		t.Fatalf("edge %s->%s not found", from, to)
		return 0
	}
	if got := edgeVol("B", "K"); !approx(got, 2400.0/46) {
		t.Errorf("volume(B->K) = %v, want %v (~52)", got, 2400.0/46)
	}
	if got := edgeVol("B", "L"); !approx(got, 2200.0/46) {
		t.Errorf("volume(B->L) = %v, want %v (~48)", got, 2200.0/46)
	}
	if got := edgeVol("C", "L"); !approx(got, 1100.0/46) {
		t.Errorf("volume(C->L) = %v, want %v (~24)", got, 1100.0/46)
	}
	if got := edgeVol("C", "N"); !approx(got, 2700.0/46) {
		t.Errorf("volume(C->N) = %v, want %v (~59)", got, 2700.0/46)
	}
}

// E2 (Fig. 12 / §4.2): glucose assay is fully static; the reagent is the
// bottleneck (Vnorm 151/45) and the smallest dispense is 3.3 nl.
func TestGlucoseVolumes(t *testing.T) {
	g := assays.GlucoseDAG()
	plan, err := core.DAGSolve(g, cfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible() {
		t.Fatalf("glucose should be feasible, got %v", plan.Underflows)
	}
	reagent := g.NodeByName("Reagent")
	if got := plan.NodeVnorm[reagent.ID()]; !approx(got, 151.0/45) {
		t.Errorf("Vnorm(Reagent) = %v, want %v", got, 151.0/45)
	}
	maxN, maxV := plan.MaxNodeVolume()
	if maxN.Name != "Reagent" || !approx(maxV, 100) {
		t.Errorf("max volume at %s = %v, want Reagent = 100", maxN.Name, maxV)
	}
	_, min := plan.MinDispense()
	if !approx(min, 100.0/9/(151.0/45)) { // (1/9 Vnorm) × scale ≈ 3.311 nl
		t.Errorf("min dispense = %v, want ≈3.311", min)
	}
	if min < 3.3 || min > 3.35 {
		t.Errorf("min dispense = %v nl, paper reports 3.3 nl", min)
	}
}

// LP formulation of glucose has exactly the 49 constraints of Table 2.
func TestGlucoseLPConstraintCount(t *testing.T) {
	g := assays.GlucoseDAG()
	f, err := core.Formulate(g, cfg(), core.FormulateOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := f.Counts
	if c.MinVolume != 15 || c.Capacity != 13 || c.NonDeficit != 8 || c.Ratio != 5 || c.OutputToOutput != 8 {
		t.Errorf("constraint classes = %v, want min=15 cap=13 nondeficit=8 ratio=5 out2out=8", c)
	}
	if c.Total() != 49 {
		t.Errorf("total constraints = %d, want 49 (Table 2)", c.Total())
	}
}

func TestGlucoseLPFeasible(t *testing.T) {
	g := assays.GlucoseDAG()
	plan, err := core.SolveLP(g, cfg(), core.FormulateOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible() {
		t.Fatalf("LP plan infeasible: %v", plan.Underflows)
	}
	// Outputs must respect the 10% skew bound.
	outs := plan.OutputVolumes()
	var ref float64
	for _, v := range outs {
		ref = v
		break
	}
	for name, v := range outs {
		if v < 0.9*ref/1.1-1e-6 || v > 1.1*ref/0.9+1e-6 {
			t.Errorf("output %s = %v violates skew band around %v", name, v, ref)
		}
	}
}

func TestLPAblationVariants(t *testing.T) {
	g := assays.GlucoseDAG()
	for _, opt := range []core.FormulateOptions{
		{FlowConservation: true},
		{EqualOutputs: true},
		{FlowConservation: true, EqualOutputs: true},
	} {
		plan, err := core.SolveLP(g, cfg(), opt, nil)
		if err != nil {
			t.Fatalf("opts %+v: %v", opt, err)
		}
		if !plan.Feasible() {
			t.Fatalf("opts %+v: infeasible", opt)
		}
	}
}

// E4 (Fig. 14 / §4.2): the enzyme assay underflows at the 1:999 dilution
// with 9.8 pl; the diluent is the Vnorm bottleneck at ≈54.
func TestEnzymeBaselineUnderflow(t *testing.T) {
	g := assays.EnzymeDAG(4)
	plan, err := core.DAGSolve(g, cfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Feasible() {
		t.Fatal("enzyme baseline should underflow (paper: 9.8 pl at the 1:999 mix)")
	}
	dil := g.NodeByName("diluent")
	if got := plan.NodeVnorm[dil.ID()]; !approx(got, 16*(0.5+0.9+0.99+0.999)) {
		t.Errorf("Vnorm(diluent) = %v, want %v (≈54)", got, 16*(0.5+0.9+0.99+0.999))
	}
	// Dilution nodes have Vnorm 16/3 and get ≈9.8 nl.
	d1 := g.NodeByName("enz_dil1")
	if got := plan.NodeVnorm[d1.ID()]; !approx(got, 16.0/3) {
		t.Errorf("Vnorm(dilution) = %v, want 16/3", got)
	}
	if got := plan.NodeVolume[d1.ID()]; math.Abs(got-9.83) > 0.01 {
		t.Errorf("dilution volume = %v nl, paper reports 9.8 nl", got)
	}
	_, min := plan.MinDispense()
	if math.Abs(min-0.009836) > 1e-4 {
		t.Errorf("min dispense = %v nl, paper reports 9.8 pl", min)
	}
	// LP cannot save it either (paper: "we found that LP also fails").
	_, err = core.SolveLP(g, cfg(), core.FormulateOptions{}, nil)
	if !errors.Is(err, core.ErrLPInfeasible) {
		t.Errorf("LP on baseline enzyme: err = %v, want ErrLPInfeasible", err)
	}
}

// cascadeEnzyme applies the paper's transform: each 1:999 dilution becomes
// three cascaded 1:9 mixes.
func cascadeEnzyme(t *testing.T, g *dag.Graph) {
	t.Helper()
	for _, name := range []string{"inh_dil4", "enz_dil4", "sub_dil4"} {
		n := g.NodeByName(name)
		if n == nil {
			t.Fatalf("missing %s", name)
		}
		if err := g.Cascade(n, 3); err != nil {
			t.Fatal(err)
		}
	}
}

// replicateDiluent replicates the diluent input three ways, grouping uses
// by reagent as the paper does.
func replicateDiluent(t *testing.T, g *dag.Graph) {
	t.Helper()
	dil := g.NodeByName("diluent")
	groups := map[string]int{"inh": 0, "enz": 1, "sub": 2}
	_, err := g.Replicate(dil, 3, func(e *dag.Edge) int {
		return groups[e.To.Name[:3]]
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEnzymeCascadeOnly(t *testing.T) {
	g := assays.EnzymeDAG(4)
	cascadeEnzyme(t, g)
	plan, err := core.DAGSolve(g, cfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dil := g.NodeByName("diluent")
	wantDil := 16 * (0.5 + 0.9 + 0.99 + 3*0.9) // ≈81.4 (paper: 81)
	if got := plan.NodeVnorm[dil.ID()]; !approx(got, wantDil) {
		t.Errorf("Vnorm(diluent) = %v, want %v", got, wantDil)
	}
	// Cascade intermediates carry Vnorm 16/3, like the original node.
	st := g.NodeByName("enz_dil4~cascade1")
	wantProd := 16.0 / 3
	gotInput := plan.NodeVnorm[st.ID()]
	if !approx(gotInput, wantProd) {
		t.Errorf("Vnorm(cascade stage) = %v, want 16/3", gotInput)
	}
	if plan.Feasible() {
		t.Fatal("cascade alone should still underflow (paper: 65.6 pl at the 1:99 mix)")
	}
	_, min := plan.MinDispense()
	if math.Abs(min-0.0655) > 1e-3 {
		t.Errorf("min dispense = %v nl, paper reports 65.6 pl", min)
	}
}

func TestEnzymeReplicationOnly(t *testing.T) {
	g := assays.EnzymeDAG(4)
	replicateDiluent(t, g)
	plan, err := core.DAGSolve(g, cfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Feasible() {
		t.Fatal("replication alone should still underflow (paper: 29.5 pl)")
	}
	_, min := plan.MinDispense()
	if math.Abs(min-0.0295) > 1e-3 {
		t.Errorf("min dispense = %v nl, paper reports 29.5 pl", min)
	}
}

func TestEnzymeCascadePlusReplication(t *testing.T) {
	g := assays.EnzymeDAG(4)
	cascadeEnzyme(t, g)
	replicateDiluent(t, g)
	plan, err := core.DAGSolve(g, cfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible() {
		t.Fatalf("cascade + replication should fix the enzyme assay, got %v", plan.Underflows)
	}
	// Replicated diluent Vnorm drops to ≈27 and the minimum dispense rises
	// to ≈196 pl (paper's numbers).
	rep := g.NodeByName("diluent")
	want := 16 * (0.5 + 0.9 + 0.99 + 3*0.9) / 3
	if got := plan.NodeVnorm[rep.ID()]; !approx(got, want) {
		t.Errorf("Vnorm(diluent replica) = %v, want %v (≈27)", got, want)
	}
	_, min := plan.MinDispense()
	if math.Abs(min-0.1965) > 2e-3 {
		t.Errorf("min dispense = %v nl, paper reports 196 pl", min)
	}
}

// The automatic hierarchy fixes the enzyme assay without manual transforms.
func TestManageEnzyme(t *testing.T) {
	g := assays.EnzymeDAG(4)
	res, err := core.Manage(g, cfg(), core.ManageOptions{SkipLP: true})
	if err != nil {
		t.Fatalf("Manage failed: %v\ntrace: %s", err, strings.Join(res.Trace, "\n"))
	}
	if !res.Plan.Feasible() {
		t.Fatal("managed plan infeasible")
	}
	if len(res.Transforms) == 0 {
		t.Fatal("expected at least one transform")
	}
	// The original graph must be untouched.
	if g.NodeByName("enz_dil4~cascade1") != nil {
		t.Fatal("Manage mutated the input graph")
	}
	// The first transform must be a cascade of a 1:999 dilution.
	if res.Transforms[0].Kind != core.TransformCascade {
		t.Errorf("first transform = %v, want cascade", res.Transforms[0])
	}
}

func TestManageGlucoseNoTransforms(t *testing.T) {
	g := assays.GlucoseDAG()
	res, err := core.Manage(g, cfg(), core.ManageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedLP || len(res.Transforms) != 0 {
		t.Errorf("glucose should solve directly via DAGSolve: usedLP=%v transforms=%v",
			res.UsedLP, res.Transforms)
	}
}

// An irreparable assay (skew beyond hardware, excess forbidden) fails with
// ErrUnmanageable.
func TestManageUnmanageable(t *testing.T) {
	g := dag.New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	a.NoExcess = true
	b.NoExcess = true
	m := g.AddMix("m", dag.Part{Source: a, Ratio: 1}, dag.Part{Source: b, Ratio: 5000})
	g.AddUnary(dag.Sense, "s", m)
	_, err := core.Manage(g, cfg(), core.ManageOptions{})
	if !errors.Is(err, core.ErrUnmanageable) {
		t.Fatalf("err = %v, want ErrUnmanageable", err)
	}
}

func TestManageResourceLimit(t *testing.T) {
	c := cfg()
	c.MaxFluidNodes = 10 // enzyme needs hundreds
	g := assays.EnzymeDAG(4)
	_, err := core.Manage(g, c, core.ManageOptions{SkipLP: true})
	if !errors.Is(err, core.ErrResourceLimit) {
		t.Fatalf("err = %v, want ErrResourceLimit", err)
	}
}

// E3 (Fig. 13): glycomics partitions into four parts; X2 (the second
// separation's effluent) has Vnorm 1/204 in the third partition; buffer3a
// splits 50/50.
func TestGlycomicsStagedPlan(t *testing.T) {
	g := assays.GlycomicsDAG()
	sp, err := core.NewStagedPlan(g, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumParts() != 4 {
		t.Fatalf("parts = %d, want 4", sp.NumParts())
	}
	// Locate the constrained input sourced from sep2 and check its Vnorm.
	sep2 := g.NodeByName("sep2")
	found := false
	for _, b := range sp.Partition.Bindings {
		if b.SourceID == sep2.ID() {
			found = true
			vn := sp.Vnorms[b.Part].Node[b.NodeID]
			if !approx(vn, 1.0/204) {
				t.Errorf("Vnorm(X2) = %v, want 1/204 (paper Fig. 13)", vn)
			}
		}
	}
	if !found {
		t.Fatal("no binding for sep2 effluent")
	}
	// buffer3a splits into two constrained inputs of 50 nl each.
	b3a := g.NodeByName("buffer3a")
	shares := 0
	for _, b := range sp.Partition.Bindings {
		if b.SourceID == b3a.ID() {
			shares++
			if !approx(b.Share, 0.5) {
				t.Errorf("buffer3a share = %v, want 0.5", b.Share)
			}
		}
	}
	if shares != 2 {
		t.Fatalf("buffer3a constrained inputs = %d, want 2", shares)
	}

	// Only the first part is static (no unknown upstream).
	done, err := sp.SolveStatic()
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 || done[0] != 0 {
		t.Fatalf("static parts = %v, want [0]", done)
	}
	p0 := sp.Plans[0]
	if !p0.Feasible() {
		t.Fatalf("part 0 infeasible: %v", p0.Underflows)
	}
	// Part 0: m1 gets the full 100 nl, its two inputs 50 nl each.
	pg := sp.Partition.Parts[0]
	m1 := pg.NodeByName("m1")
	if !approx(p0.NodeVolume[m1.ID()], 100) {
		t.Errorf("m1 volume = %v, want 100", p0.NodeVolume[m1.ID()])
	}

	// Run-time: separations yield 40% of their input.
	measure := func(orig int, port string) (float64, bool) {
		n := g.Node(orig)
		if !n.Unknown {
			return 0, false
		}
		// The separation's planned input volume comes from its own part's
		// plan; emulate a 40% effluent yield.
		loc := sp.Partition.NodeOf[orig]
		in := sp.Plans[loc[0]].NodeVolume[loc[1]]
		return 0.4 * in, true
	}
	for i := 1; i < sp.NumParts(); i++ {
		plan, err := sp.SolvePart(i, measure)
		if err != nil {
			t.Fatalf("part %d: %v", i, err)
		}
		if !plan.Feasible() {
			t.Logf("part %d underflows (acceptable if yield too low): %v", i, plan.Underflows)
		}
	}
}

func TestStagedPartOrderEnforced(t *testing.T) {
	g := dag.New()
	in1 := g.AddInput("in1")
	in2 := g.AddInput("in2")
	x := g.AddMix("X", dag.Part{Source: in1, Ratio: 1}, dag.Part{Source: in2, Ratio: 1})
	u := g.AddUnary(dag.Separate, "U", in2)
	u.Unknown = true
	y := g.AddMix("Y", dag.Part{Source: x, Ratio: 1}, dag.Part{Source: in1, Ratio: 1})
	g.AddUnary(dag.Sense, "sy", y)
	z := g.AddNode(dag.Mix, "Z")
	g.AddPortEdge(u, z, 0.5, dag.PortEffluent)
	e := g.Edges()[len(g.Edges())-1]
	_ = e
	g.AddEdge(x, z, 0.5)
	g.AddUnary(dag.Sense, "sz", z)
	sp, err := core.NewStagedPlan(g, cfg())
	if err != nil {
		t.Fatal(err)
	}
	// Solving a later part that needs X's production before X's part is an
	// ordering error.
	for i := 1; i < sp.NumParts(); i++ {
		if _, err := sp.SolvePart(i, func(int, string) (float64, bool) { return 50, true }); err != nil {
			if !errors.Is(err, core.ErrPartOrder) {
				t.Fatalf("err = %v, want ErrPartOrder", err)
			}
			return
		}
	}
	t.Fatal("expected an ErrPartOrder for some part")
}

// E5 (§4.2): rounding to the least count keeps ratio errors within ~2%.
func TestRoundingError(t *testing.T) {
	c := cfg()
	g := assays.GlucoseDAG()
	plan, err := core.DAGSolve(g, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	ip := core.Round(plan, c)
	if !ip.Feasible() {
		t.Fatalf("rounded glucose infeasible: %v %v", ip.Underflows, ip.Overflows)
	}
	if ip.MaxRatioError > 0.02 {
		t.Errorf("glucose max ratio error = %v, paper reports ≤2%%", ip.MaxRatioError)
	}

	ge := assays.EnzymeDAG(4)
	cascadeEnzyme(t, ge)
	replicateDiluent(t, ge)
	planE, err := core.DAGSolve(ge, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	ipE := core.Round(planE, c)
	if !ipE.Feasible() {
		t.Fatalf("rounded enzyme infeasible: %v %v", ipE.Underflows, ipE.Overflows)
	}
	avg := (ip.MeanRatioError + ipE.MeanRatioError) / 2
	if avg > 0.02 {
		t.Errorf("mean ratio error across glucose+enzyme = %v, paper reports ≤2%%", avg)
	}
}

func TestErrNeedsPartition(t *testing.T) {
	g := assays.GlycomicsDAG()
	_, err := core.DAGSolve(g, cfg(), nil)
	if !errors.Is(err, core.ErrNeedsPartition) {
		t.Fatalf("err = %v, want ErrNeedsPartition", err)
	}
	_, err = core.Formulate(g, cfg(), core.FormulateOptions{}, nil)
	if !errors.Is(err, core.ErrNeedsPartition) {
		t.Fatalf("Formulate err = %v, want ErrNeedsPartition", err)
	}
}

func TestLPInfeasibleExtremeMix(t *testing.T) {
	g := dag.New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	m := g.AddMix("m", dag.Part{Source: a, Ratio: 1}, dag.Part{Source: b, Ratio: 1500})
	g.AddUnary(dag.Sense, "s", m)
	_, err := core.SolveLP(g, cfg(), core.FormulateOptions{}, nil)
	if !errors.Is(err, core.ErrLPInfeasible) {
		t.Fatalf("err = %v, want ErrLPInfeasible", err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []core.Config{
		{MaxCapacity: 0, LeastCount: 0.1},
		{MaxCapacity: 100, LeastCount: 0},
		{MaxCapacity: 1, LeastCount: 10},
		{MaxCapacity: 100, LeastCount: 0.1, OutputSkew: 1.5},
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("Config %+v should be invalid", c)
		}
	}
	if err := cfg().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestMinNodeVolumeEnforced(t *testing.T) {
	c := cfg()
	c.MinNodeVolume = map[dag.Kind]float64{dag.Separate: 500} // > MaxCapacity: impossible
	g := dag.New()
	a := g.AddInput("a")
	sep := g.AddUnary(dag.Separate, "sep", a)
	sep.OutFrac = 0.5
	g.AddUnary(dag.Sense, "s", sep)
	plan, err := core.DAGSolve(g, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Feasible() {
		t.Fatal("separator minimum of 500 nl cannot be met with 100 nl capacity")
	}
}

func TestOutFracPropagation(t *testing.T) {
	// A concentrate step that halves volume doubles the upstream demand.
	g := dag.New()
	a := g.AddInput("a")
	conc := g.AddUnary(dag.Concentrate, "conc", a)
	conc.OutFrac = 0.5
	g.AddUnary(dag.Sense, "s", conc)
	plan, err := core.DAGSolve(g, cfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cn := g.NodeByName("conc")
	// Output side 1 → input side 2; a supplies 2.
	if !approx(plan.NodeVnorm[cn.ID()], 2) {
		t.Errorf("Vnorm(conc) = %v, want 2", plan.NodeVnorm[cn.ID()])
	}
	if !approx(plan.NodeVolume[cn.ID()], 100) {
		t.Errorf("volume(conc input) = %v, want 100 (it is the bottleneck)", plan.NodeVolume[cn.ID()])
	}
	if !approx(plan.Production[cn.ID()], 50) {
		t.Errorf("production(conc) = %v, want 50", plan.Production[cn.ID()])
	}
}

// randomKnownDAG builds a random statically-known DAG (no unknown nodes).
func randomKnownDAG(r *rand.Rand) *dag.Graph {
	g := dag.New()
	var pool []*dag.Node
	nIn := 2 + r.Intn(3)
	for i := 0; i < nIn; i++ {
		pool = append(pool, g.AddInput("in"))
	}
	nOps := 2 + r.Intn(8)
	for i := 0; i < nOps; i++ {
		switch r.Intn(4) {
		case 0, 1, 2:
			k := 2
			if len(pool) > 2 && r.Intn(2) == 0 {
				k = 3
			}
			parts := make([]dag.Part, 0, k)
			seen := map[*dag.Node]bool{}
			for len(parts) < k {
				src := pool[r.Intn(len(pool))]
				if seen[src] {
					continue
				}
				seen[src] = true
				parts = append(parts, dag.Part{Source: src, Ratio: float64(1 + r.Intn(9))})
			}
			pool = append(pool, g.AddMix("m", parts...))
		case 3:
			pool = append(pool, g.AddUnary(dag.Incubate, "h", pool[r.Intn(len(pool))]))
		}
	}
	return g
}

// Property: DAGSolve plans respect ratios, flow conservation, and capacity;
// when DAGSolve is feasible, LP is feasible too (DAGSolve over-constrains).
func TestQuickDAGSolveInvariants(t *testing.T) {
	c := cfg()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomKnownDAG(r)
		plan, err := core.DAGSolve(g, c, nil)
		if err != nil {
			return false
		}
		for _, n := range g.Nodes() {
			// Capacity.
			if plan.NodeVolume[n.ID()] > c.MaxCapacity+1e-6 {
				return false
			}
			// Ratios.
			in := 0.0
			for _, e := range n.In() {
				in += plan.EdgeVolume[e.ID()]
			}
			for _, e := range n.In() {
				if math.Abs(plan.EdgeVolume[e.ID()]-e.Frac*in) > 1e-6 {
					return false
				}
			}
			// Flow conservation (DAGSolve's artificial constraint): the
			// production of every non-leaf equals the sum of its uses.
			if !n.IsLeaf() {
				out := 0.0
				for _, e := range n.Out() {
					out += plan.EdgeVolume[e.ID()]
				}
				if math.Abs(out-plan.Production[n.ID()]) > 1e-6 &&
					math.Abs(out-plan.Production[n.ID()]/(1-n.Discard)) > 1e-6 {
					return false
				}
			}
		}
		if plan.Feasible() {
			lpPlan, err := core.SolveLP(g, c, core.FormulateOptions{}, nil)
			if err != nil || !lpPlan.Feasible() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: rounding a feasible plan never changes any mix fraction by more
// than leastCount/minEdge relative error.
func TestQuickRoundingBound(t *testing.T) {
	c := cfg()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomKnownDAG(r)
		plan, err := core.DAGSolve(g, c, nil)
		if err != nil {
			return false
		}
		if !plan.Feasible() {
			return true
		}
		ip := core.Round(plan, c)
		_, minEdge := plan.MinDispense()
		bound := c.LeastCount / minEdge // coarse but sound bound
		return ip.MaxRatioError <= bound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
