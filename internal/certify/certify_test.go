package certify

import (
	"errors"
	"testing"

	"aquavol/internal/assays"
	"aquavol/internal/budget"
	"aquavol/internal/core"
	"aquavol/internal/dag"
)

func cfg() core.Config { return core.DefaultConfig() }

// cause extracts the typed sentinel of a certification error and asserts
// there is exactly one.
func cause(t *testing.T, err error) error {
	t.Helper()
	if err == nil {
		t.Fatal("expected a certification error")
	}
	if !errors.Is(err, ErrCertificate) {
		t.Fatalf("error %v does not match ErrCertificate", err)
	}
	causes := []error{ErrShape, ErrConservation, ErrCapacity, ErrLeastCount,
		ErrAvailability, ErrPrimal, ErrDual, ErrGap, ErrPatch, ErrHash}
	var matched []error
	for _, c := range causes {
		if errors.Is(err, c) {
			matched = append(matched, c)
		}
	}
	if len(matched) != 1 {
		t.Fatalf("error %v matches %d typed causes (%v), want exactly 1", err, len(matched), matched)
	}
	return matched[0]
}

func dagsolvePlan(t *testing.T, g *dag.Graph) *core.Plan {
	t.Helper()
	p, err := core.DAGSolve(g, cfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible() {
		t.Fatalf("fixture plan infeasible: %v", p.Underflows)
	}
	return p
}

func lpPlan(t *testing.T, g *dag.Graph) *core.Plan {
	t.Helper()
	p, err := core.SolveLP(g, cfg(), core.FormulateOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible() {
		t.Fatalf("fixture LP plan infeasible: %v", p.Underflows)
	}
	return p
}

// Every shipped assay's plan must certify clean, through both solvers
// and the full Manage hierarchy.
func TestShippedPlansCertifyClean(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *dag.Graph
	}{
		{"fig2", assays.Fig2DAG()},
		{"glucose", assays.GlucoseDAG()},
	} {
		if err := CheckPlan(dagsolvePlan(t, tc.g), cfg(), nil); err != nil {
			t.Errorf("%s/dagsolve: %v", tc.name, err)
		}
	}
	if err := CheckPlan(lpPlan(t, assays.GlucoseDAG()), cfg(), nil); err != nil {
		t.Errorf("glucose/lp: %v", err)
	}
	res, err := core.Manage(assays.EnzymeDAG(4), cfg(), core.ManageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPlan(res.Plan, cfg(), core.StaticAvailability(cfg())); err != nil {
		t.Errorf("enzyme4/manage (%s): %v", res.Plan.Method, err)
	}
}

// A plan solved under a nonzero safety margin still certifies: the
// non-deficit check must apply the same margin the solver did.
func TestMarginPlanCertifies(t *testing.T) {
	c := cfg()
	c.SafetyMargin = 0.05
	p, err := core.DAGSolve(assays.GlucoseDAG(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPlan(p, c, nil); err != nil {
		t.Errorf("margin plan: %v", err)
	}
}

// Staged plans certify part by part under PartAvailability.
func TestStagedPartsCertify(t *testing.T) {
	sp, err := core.NewStagedPlan(assays.GlycomicsDAG(), cfg())
	if err != nil {
		t.Fatal(err)
	}
	measured := map[int]float64{}
	measure := func(orig int, port string) (float64, bool) {
		v, ok := measured[orig]
		return v, ok
	}
	for i := 0; i < sp.NumParts(); i++ {
		// Feed the separator's unknown effluents a plausible reading.
		for _, b := range sp.Partition.Bindings {
			if b.Part == i && b.SourceUnknown {
				measured[b.SourceID] = 40
			}
		}
		plan, err := sp.SolvePart(i, measure)
		if err != nil {
			t.Fatalf("part %d: %v", i, err)
		}
		if !plan.Feasible() {
			t.Fatalf("part %d infeasible: %v", i, plan.Underflows)
		}
		if err := CheckPlan(plan, sp.Config(), sp.PartAvailability(i, measure)); err != nil {
			t.Errorf("part %d (%s): %v", i, plan.Method, err)
		}
	}
}

// residualFixture mirrors core's replan test: in1,in2 → mix(1:3) →
// incubate → sense with everything through the mix executed, leaving a
// residual fed by one live vessel.
func residualFixture(t *testing.T) (*dag.Graph, *dag.Node, *dag.Residual) {
	t.Helper()
	g := dag.New()
	in1 := g.AddInput("in1")
	in2 := g.AddInput("in2")
	m := g.AddMix("M", dag.Part{Source: in1, Ratio: 1}, dag.Part{Source: in2, Ratio: 3})
	h := g.AddUnary(dag.Incubate, "H", m)
	g.AddUnary(dag.Sense, "end", h)
	done := map[int]bool{in1.ID(): true, in2.ID(): true, m.ID(): true}
	r, err := dag.ExtractResidual(g, func(n *dag.Node) bool { return done[n.ID()] })
	if err != nil {
		t.Fatal(err)
	}
	return g, m, r
}

func solvedResidual(t *testing.T, liveVol float64) (*core.ResidualPlan, *dag.Node) {
	t.Helper()
	_, m, r := residualFixture(t)
	live := func(sourceID int, port string) (float64, bool) { return liveVol, true }
	rp, err := core.SolveResidual(r, cfg(), live)
	if err != nil {
		t.Fatal(err)
	}
	return rp, m
}

func TestResidualCertifies(t *testing.T) {
	rp, _ := solvedResidual(t, 37.5)
	live := func(sourceID int, port string) (float64, bool) { return 37.5, true }
	if err := CheckResidual(rp, cfg(), live); err != nil {
		t.Fatal(err)
	}
	// A shrunken live reading means the certified plan now over-draws.
	shrunk := func(sourceID int, port string) (float64, bool) {
		return 0.9 * 37.5, true
	}
	err := CheckResidual(rp, cfg(), shrunk)
	if got := cause(t, err); got != ErrAvailability {
		t.Fatalf("cause = %v, want ErrAvailability", got)
	}
}

func TestPatchesCertify(t *testing.T) {
	rp, _ := solvedResidual(t, 37.5)
	// Build the patch map the way the repair engine does: pc → edge
	// volume, with resolve mapping each pc straight to its edge.
	patches := map[int]float64{}
	edges := map[int]int{} // pc → original edge id
	pc := 100
	for orig, v := range rp.EdgeVolumes() {
		patches[pc] = v
		edges[pc] = orig
		pc++
	}
	resolve := func(pc int) (int, int) {
		if e, ok := edges[pc]; ok {
			return e, -1
		}
		return -1, -1
	}
	if err := CheckPatches(rp, patches, resolve); err != nil {
		t.Fatal(err)
	}
	// Perturb one patched volume: the map no longer matches the plan.
	for pc := range patches {
		patches[pc] += 0.5
		break
	}
	if got := cause(t, CheckPatches(rp, patches, resolve)); got != ErrPatch {
		t.Fatalf("cause = %v, want ErrPatch", got)
	}
	// A patch that resolves to nothing is equally fatal.
	if got := cause(t, CheckPatches(rp, map[int]float64{7: 1}, func(int) (int, int) { return -1, -1 })); got != ErrPatch {
		t.Fatalf("cause = %v, want ErrPatch", got)
	}
}

// Single-field perturbations of a dagsolve plan each yield exactly one
// typed cause.
func TestMutantsDagsolve(t *testing.T) {
	base := func() *core.Plan { return dagsolvePlan(t, assays.GlucoseDAG()) }
	cases := []struct {
		name   string
		mutate func(p *core.Plan)
		want   error
	}{
		{"edge-volume", func(p *core.Plan) { p.EdgeVolume[firstEdge(p)] += 0.5 }, ErrConservation},
		{"node-volume", func(p *core.Plan) { p.NodeVolume[firstNonSource(p)] += 0.5 }, ErrConservation},
		{"production", func(p *core.Plan) { p.Production[firstNonSource(p)] -= 0.5 }, ErrConservation},
		{"source-volume", func(p *core.Plan) { p.NodeVolume[firstSource(p)] += 0.5 }, ErrConservation},
		{"nan", func(p *core.Plan) { p.NodeVolume[firstSource(p)] = nan() }, ErrShape},
		{"truncate", func(p *core.Plan) { p.EdgeVolume = p.EdgeVolume[:1] }, ErrShape},
	}
	for _, tc := range cases {
		p := base()
		tc.mutate(p)
		if got := cause(t, CheckPlan(p, cfg(), nil)); got != tc.want {
			t.Errorf("%s: cause = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// A coherent over-capacity scaling (every volume ×1.2) preserves
// conservation but must still die on capacity.
func TestMutantOverCapacity(t *testing.T) {
	p := dagsolvePlan(t, assays.GlucoseDAG())
	for i := range p.NodeVolume {
		p.NodeVolume[i] *= 1.2
		p.Production[i] *= 1.2
	}
	for i := range p.EdgeVolume {
		p.EdgeVolume[i] *= 1.2
	}
	if got := cause(t, CheckPlan(p, cfg(), nil)); got != ErrCapacity {
		t.Fatalf("cause = %v, want ErrCapacity", got)
	}
}

// A coherent scale-down dies on the least count instead.
func TestMutantUnderLeastCount(t *testing.T) {
	p := dagsolvePlan(t, assays.GlucoseDAG())
	_, min := p.MinDispense()
	k := 0.5 * cfg().LeastCount / min
	for i := range p.NodeVolume {
		p.NodeVolume[i] *= k
		p.Production[i] *= k
	}
	for i := range p.EdgeVolume {
		p.EdgeVolume[i] *= k
	}
	if got := cause(t, CheckPlan(p, cfg(), nil)); got != ErrLeastCount {
		t.Fatalf("cause = %v, want ErrLeastCount", got)
	}
}

// Certificate perturbations on LP plans: duals and reduced costs are
// pinned by the recomputation identity; a missing certificate is fatal.
func TestMutantsLP(t *testing.T) {
	base := func() *core.Plan { return lpPlan(t, assays.GlucoseDAG()) }
	cases := []struct {
		name   string
		mutate func(p *core.Plan)
		want   error
	}{
		{"dual", func(p *core.Plan) { p.Duals[0] += 0.05 }, ErrDual},
		{"reduced-cost", func(p *core.Plan) { p.ReducedCosts[0] += 0.05 }, ErrDual},
		{"missing-certificate", func(p *core.Plan) { p.Duals, p.ReducedCosts = nil, nil }, ErrDual},
		{"truncated-certificate", func(p *core.Plan) { p.Duals = p.Duals[:1] }, ErrShape},
		{"edge-volume", func(p *core.Plan) { p.EdgeVolume[firstEdge(p)] += 0.5 }, ErrConservation},
	}
	for _, tc := range cases {
		p := base()
		tc.mutate(p)
		if got := cause(t, CheckPlan(p, cfg(), nil)); got != tc.want {
			t.Errorf("%s: cause = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// An LP plan declared as solving a different problem (wrong config) must
// not certify: the re-derived formulation disagrees.
func TestLPWrongConfig(t *testing.T) {
	p := lpPlan(t, assays.GlucoseDAG())
	c := cfg()
	c.MaxCapacity = 80 // the plan saturates nodes at 100
	if err := CheckPlan(p, c, nil); err == nil {
		t.Fatal("expected certification failure under shrunken capacity")
	} else {
		cause(t, err)
	}
}

// Budget stops pass through as budget errors, never as certification
// failures.
func TestBudgetPassthrough(t *testing.T) {
	p := dagsolvePlan(t, assays.GlucoseDAG())
	c := cfg()
	c.Budget = budget.New(3)
	err := CheckPlan(p, c, nil)
	if err == nil {
		t.Fatal("expected budget stop")
	}
	if !budget.IsStop(err) {
		t.Fatalf("err = %v, want a budget stop", err)
	}
	if errors.Is(err, ErrCertificate) {
		t.Fatalf("budget stop %v must not match ErrCertificate", err)
	}
}

func TestPlanHashDeterministic(t *testing.T) {
	p1 := dagsolvePlan(t, assays.GlucoseDAG())
	p2 := dagsolvePlan(t, assays.GlucoseDAG())
	h1, h2 := PlanHash(p1), PlanHash(p2)
	if h1 != h2 {
		t.Fatalf("same plan hashed %08x vs %08x", h1, h2)
	}
	p2.EdgeVolume[firstEdge(p2)] += 0.5
	if PlanHash(p2) == h1 {
		t.Fatal("perturbed plan hashed identically")
	}
	lp1, lp2 := lpPlan(t, assays.GlucoseDAG()), lpPlan(t, assays.GlucoseDAG())
	if PlanHash(lp1) != PlanHash(lp2) {
		t.Fatal("same LP plan hashed differently")
	}
	lp2.Duals[0] += 0.05
	if PlanHash(lp1) == PlanHash(lp2) {
		t.Fatal("dual perturbation not reflected in hash")
	}
}

func TestReplanHashCoversPatches(t *testing.T) {
	rp, _ := solvedResidual(t, 37.5)
	patches := map[int]float64{3: 1.5, 9: 2.5}
	h := ReplanHash(rp, patches)
	if h != ReplanHash(rp, map[int]float64{9: 2.5, 3: 1.5}) {
		t.Fatal("hash depends on patch insertion order")
	}
	patches[9] += 0.5
	if ReplanHash(rp, patches) == h {
		t.Fatal("patch perturbation not reflected in hash")
	}
}

func firstEdge(p *core.Plan) int {
	for _, e := range p.Graph.Edges() {
		if e != nil {
			return e.ID()
		}
	}
	panic("no edges")
}

func firstNonSource(p *core.Plan) int {
	for _, n := range p.Graph.Nodes() {
		if n != nil && !n.IsSource() {
			return n.ID()
		}
	}
	panic("no non-source nodes")
}

func firstSource(p *core.Plan) int {
	for _, n := range p.Graph.Nodes() {
		if n != nil && n.IsSource() {
			return n.ID()
		}
	}
	panic("no source nodes")
}

func nan() float64 {
	v := 0.0
	return v / v
}
