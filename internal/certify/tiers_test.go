package certify_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"aquavol/internal/ais"
	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/budget"
	"aquavol/internal/certify"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/faults"
	"aquavol/internal/journal"
	"aquavol/internal/lang"
	"aquavol/internal/lp"
	"aquavol/internal/pipeline"
	recovery "aquavol/internal/recover"
)

// The tier-agreement oracle: CheckPlan, CheckResidual and CheckPatches
// run the float tier first and the exact tier only when the float tier
// cannot prove a pass. Whatever the input, their verdict must be the
// exact tier's alone: the same pass, the same typed cause, check,
// witness and detail, and the same budget stop at the same unit.

// verdict renders what a checker returned, down to every field a
// caller can observe.
func verdict(err error) string {
	if err == nil {
		return "pass"
	}
	var v *certify.Violation
	if errors.As(err, &v) {
		return fmt.Sprintf("%v | %s | %s | %s", v.Cause, v.Check, v.Where, v.Detail)
	}
	return "stop: " + err.Error()
}

// subject is one input to certify: the two-tier entry point, the exact
// tier alone (both charging m when the entry point takes a meter), and
// whether the float tier alone proves it.
type subject struct {
	name          string
	check, exact  func(m *budget.Meter) error
	floatDecides  func() bool
	chargesBudget bool
}

func planSubject(name string, p *core.Plan, cfg core.Config, avail core.Availability) subject {
	with := func(m *budget.Meter) core.Config { c := cfg; c.Budget = m; return c }
	return subject{
		name:          name,
		check:         func(m *budget.Meter) error { return certify.CheckPlan(p, with(m), avail) },
		exact:         func(m *budget.Meter) error { return certify.ExactCheckPlan(p, with(m), avail) },
		floatDecides:  func() bool { return certify.FloatProvesPlan(p, cfg, avail) },
		chargesBudget: true,
	}
}

func residualSubject(name string, rp *core.ResidualPlan, cfg core.Config, live core.Measure) subject {
	with := func(m *budget.Meter) core.Config { c := cfg; c.Budget = m; return c }
	return subject{
		name:  name,
		check: func(m *budget.Meter) error { return certify.CheckResidual(rp, with(m), live) },
		exact: func(m *budget.Meter) error { return certify.ExactCheckResidual(rp, with(m), live) },
		floatDecides: func() bool {
			return certify.FloatProvesPlan(rp.Plan, cfg, core.ResidualAvailability(rp.Residual, cfg, live))
		},
		chargesBudget: true,
	}
}

func patchSubject(name string, rp *core.ResidualPlan, patches map[int]float64, resolve func(int) (int, int)) subject {
	return subject{
		name:         name,
		check:        func(*budget.Meter) error { return certify.CheckPatches(rp, patches, resolve) },
		exact:        func(*budget.Meter) error { return certify.ExactCheckPatches(rp, patches, resolve) },
		floatDecides: func() bool { return certify.FloatProvesPatches(rp, patches, resolve) },
	}
}

// agree asserts the two-tier verdict is the exact tier's and returns it.
func agree(t testing.TB, s subject) string {
	t.Helper()
	got, want := verdict(s.check(nil)), verdict(s.exact(nil))
	if got != want {
		t.Errorf("%s: two-tier verdict\n\t%s\nexact tier\n\t%s", s.name, got, want)
	}
	return want
}

// agreeUnderBudget asserts that the two tiers charge a meter the same
// number of units, and that a meter cancelled after the k-th of them
// stops both with the same error: for every k up to points units, and
// for points evenly strided values of k (the last unit among them)
// beyond that, which keeps the sweep of the enzyme LP plans affordable.
func agreeUnderBudget(t *testing.T, s subject, points int64) {
	t.Helper()
	full, exact := budget.New(0), budget.New(0)
	s.check(full)
	s.exact(exact)
	units := exact.Used()
	if full.Used() != units {
		t.Errorf("%s: two-tier checker charged %d units, exact tier %d", s.name, full.Used(), units)
		return
	}
	if units == 0 {
		t.Errorf("%s: certification charged no work units", s.name)
	}
	stride := (units + points - 1) / points
	for k := int64(1); k <= units; k += stride {
		if k+stride > units {
			k = units
		}
		got := verdict(s.check(budget.New(0).CancelAfter(k)))
		want := verdict(s.exact(budget.New(0).CancelAfter(k)))
		if got != want {
			t.Errorf("%s: cancel after %d of %d units: two-tier %q, exact tier %q", s.name, k, units, got, want)
			return
		}
	}
}

// sweepPoints is how many cancel points agreeUnderBudget tries at most
// per input: fewer under the race detector or -short.
func sweepPoints() int64 {
	if raceEnabled || testing.Short() {
		return 25
	}
	return 100
}

// shippedPlans plans every shipped assay source that plans (glucose,
// Enzyme n=2..5 and the lint exemplars, vol003 among them) the way
// pipeline.Certify checks it, plus the glucose LP and Fig. 2 DAGSolve
// plans of the E16 kill matrix.
func shippedPlans(t testing.TB) []subject {
	t.Helper()
	cfg := core.DefaultConfig()
	srcs := []struct{ name, src string }{{"glucose", assays.GlucoseSource}}
	for n := 2; n <= 5; n++ {
		srcs = append(srcs, struct{ name, src string }{fmt.Sprintf("enzyme%d", n), assays.EnzymeSource(n)})
	}
	files, err := filepath.Glob("../analysis/testdata/lint/*.asy")
	if err != nil || len(files) == 0 {
		t.Fatalf("lint exemplars: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, struct{ name, src string }{strings.TrimSuffix(filepath.Base(f), ".asy"), string(b)})
	}
	var out []subject
	vol003 := false
	for _, s := range srcs {
		ep, err := lang.Compile(s.src)
		if err != nil {
			continue // exemplars of front-end diagnostics never reach a plan
		}
		pl, err := pipeline.Plan(ep, pipeline.Options{Config: cfg})
		if err != nil {
			continue
		}
		switch {
		case pl.Staged != nil:
			for _, i := range pl.Static {
				if p := pl.Staged.Plans[i]; p != nil && p.Feasible() {
					out = append(out, planSubject(fmt.Sprintf("%s/part%d", s.name, i), p, cfg, pl.Staged.PartAvailability(i, nil)))
				}
			}
		case pl.Manage != nil:
			out = append(out, planSubject(s.name+"/"+pl.Plan.Method, pl.Plan, cfg, core.StaticAvailability(cfg)))
		}
		vol003 = vol003 || strings.HasPrefix(s.name, "vol003")
	}
	if !vol003 {
		t.Fatal("vol003 did not plan")
	}
	lpPlan, err := core.SolveLP(assays.GlucoseDAG(), cfg, core.FormulateOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fig2, err := core.DAGSolve(assays.Fig2DAG(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, planSubject("glucose/lp-direct", lpPlan, cfg, nil), planSubject("fig2/dagsolve", fig2, cfg, nil))
}

// stagedParts solves every partition of glycomics, feeding each
// separator's unknown effluent a plausible reading, as a run does.
func stagedParts(t testing.TB) []subject {
	t.Helper()
	sp, err := core.NewStagedPlan(assays.GlycomicsDAG(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	measured := map[int]float64{}
	measure := func(orig int, port string) (float64, bool) {
		v, ok := measured[orig]
		return v, ok
	}
	var out []subject
	for i := 0; i < sp.NumParts(); i++ {
		for _, b := range sp.Partition.Bindings {
			if b.Part == i && b.SourceUnknown {
				measured[b.SourceID] = 40
			}
		}
		p, err := sp.SolvePart(i, measure)
		if err != nil {
			t.Fatalf("glycomics part %d: %v", i, err)
		}
		out = append(out, planSubject(fmt.Sprintf("glycomics/part%d/%s", i, p.Method), p, sp.Config(), sp.PartAvailability(i, measure)))
	}
	return out
}

// replan is one residual replan a faulted fluidvm -replan run
// certified, with the live readings it was solved under and the patch
// map it was applied through.
type replan struct {
	name    string
	rp      *core.ResidualPlan
	cfg     core.Config
	live    core.Measure
	patches map[int]float64
	resolve func(pc int) (edge, node int)
}

// captureReplans runs src as fluidvm -replan -faults profile -seed seed
// does, journaled in memory with a snapshot at every boundary, and
// rebuilds each replan the run applied from the snapshot taken just
// before it, the way the repair engine derived it. The rebuilt plan
// and the journaled patch map must hash to the certificate the run
// journaled, so what is captured is exactly what was certified.
func captureReplans(t testing.TB, name, src, profile string, seed int64) []replan {
	t.Helper()
	ep, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Build(ep, pipeline.Options{Config: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := faults.Preset(profile)
	machine := func() *aquacore.Machine {
		m, err := res.Machine(aquacore.Config{SeparationYield: 0.4, Faults: faults.New(prof, seed)})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	var buf bytes.Buffer
	jw, err := journal.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Compiled()
	recovery.Run(machine(), res.Prog, c, recovery.Options{EnableReplan: true, Journal: jw, SnapshotEvery: 1})
	recs, err := journal.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	snaps := map[int]*journal.Snapshot{}
	for _, s := range recovery.Snapshots(recs) {
		snaps[s.Boundary] = s
	}
	resolve := func(pc int) (int, int) {
		in := res.Prog.Instrs[pc]
		if in.Edge >= 0 {
			return in.Edge, -1
		}
		if in.Op == ais.Input && in.Node >= 0 {
			return -1, in.Node
		}
		return -1, -1
	}
	var out []replan
	for _, r := range recs {
		if r.Kind != journal.KindReplan {
			continue
		}
		rec := r.Replan
		m := machine()
		if err := m.Restore(snaps[rec.Boundary].Machine); err != nil {
			t.Fatal(err)
		}
		executed := func(n *dag.Node) bool {
			cl, ok := c.Clusters[n.ID()]
			return !ok || cl[1] <= rec.PC
		}
		resid, err := dag.ExtractResidual(c.Graph, executed)
		if err != nil {
			t.Fatal(err)
		}
		live := func(sourceID int, port string) (float64, bool) {
			vessel, ok := c.VesselOf[dag.FluidKey(sourceID, port)]
			if !ok {
				return 0, false
			}
			return m.VesselVolume(vessel) / (1 + prof.MeterJitter), true
		}
		rp, err := core.SolveResidual(resid, m.VolumeConfig(), live)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("%s %s seed %d replan@%d", name, profile, seed, rec.Boundary)
		if got := certify.ReplanHash(rp, rec.Patches); got != rec.CertHash {
			t.Fatalf("%s: rebuilt replan hashes %08x, journal certified %08x", what, got, rec.CertHash)
		}
		out = append(out, replan{what, rp, m.VolumeConfig(), live, rec.Patches, resolve})
	}
	return out
}

// capturedReplans are the replans of the paper assays under every
// fault preset, fault seeds 1–3 (enzyme3's harsh ones included; seed 1
// alone under the race detector or -short).
func capturedReplans(t testing.TB) []replan {
	seeds := int64(3)
	if raceEnabled || testing.Short() {
		seeds = 1
	}
	var out []replan
	for _, s := range []struct{ name, src string }{
		{"glucose", assays.GlucoseSource},
		{"glycomics", assays.GlycomicsSource},
		{"enzyme2", assays.EnzymeSource(2)},
		{"enzyme3", assays.EnzymeSource(3)},
	} {
		for _, profile := range []string{"mild", "moderate", "harsh"} {
			for seed := int64(1); seed <= seeds; seed++ {
				out = append(out, captureReplans(t, s.name, s.src, profile, seed)...)
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no faulted run replanned")
	}
	return out
}

// TestTiersAgreeOnShippedPlans: every shipped plan, staged part and
// captured replan passes, the float tier alone decides it (fallbacks
// cannot silently eat the gain), and a meter cancelled after the k-th
// unit stops the two-tier and exact checkers with the same error (see
// agreeUnderBudget for which k).
func TestTiersAgreeOnShippedPlans(t *testing.T) {
	subjects := append(shippedPlans(t), stagedParts(t)...)
	lps := 0
	for _, s := range subjects {
		if strings.HasSuffix(s.name, "/lp") || strings.Contains(s.name, "/lp-") {
			lps++
		}
	}
	if lps < 2 {
		t.Fatalf("only %d LP plans among the shipped plans", lps)
	}
	for _, r := range capturedReplans(t) {
		subjects = append(subjects,
			residualSubject(r.name, r.rp, r.cfg, r.live),
			patchSubject(r.name+"/patches", r.rp, r.patches, r.resolve))
	}
	t.Logf("%d shipped plans, staged parts, captured replans and patch maps", len(subjects))
	for _, s := range subjects {
		if v := agree(t, s); v != "pass" {
			t.Errorf("%s: %s", s.name, v)
		}
		if !s.floatDecides() {
			t.Errorf("%s: the float tier left a passing input to the exact tier", s.name)
		}
		if s.chargesBudget {
			agreeUnderBudget(t, s, sweepPoints())
		}
	}
}

// e16Mutants enumerates the mutants of the E16 kill matrix
// (internal/bench/certify.go): every single-field perturbation of the
// fig2 and glucose DAGSolve plans, the glucose LP plan, the enzyme4
// managed plan and the replanning fixture, the coherent scalings, the
// shrunken live readings, and the corrupted or unresolvable patches.
func e16Mutants(t *testing.T) []subject {
	cfg := core.DefaultConfig()
	var out []subject
	planMutants := func(cse string, base *core.Plan, mk func(string, *core.Plan) subject) {
		add := func(field string, mutate func(*core.Plan)) {
			p := clonePlan(base)
			mutate(p)
			out = append(out, mk(fmt.Sprintf("%s/%s#%d", cse, field, len(out)), p))
		}
		for _, n := range base.Graph.Nodes() {
			if n != nil {
				id := n.ID()
				add("node-volume", func(p *core.Plan) { p.NodeVolume[id] += 0.5 })
				add("production", func(p *core.Plan) { p.Production[id] -= 0.5 })
			}
		}
		for _, e := range base.Graph.Edges() {
			if e != nil {
				id := e.ID()
				add("edge-volume", func(p *core.Plan) { p.EdgeVolume[id] += 0.5 })
			}
		}
	}
	scaled := func(base *core.Plan, k float64) *core.Plan {
		p := clonePlan(base)
		for _, s := range [][]float64{p.NodeVolume, p.Production, p.EdgeVolume} {
			for i := range s {
				s[i] *= k
			}
		}
		return p
	}
	for _, pc := range []struct {
		name  string
		solve func() (*core.Plan, error)
		avail core.Availability
	}{
		{"fig2/dagsolve", func() (*core.Plan, error) { return core.DAGSolve(assays.Fig2DAG(), cfg, nil) }, nil},
		{"glucose/dagsolve", func() (*core.Plan, error) { return core.DAGSolve(assays.GlucoseDAG(), cfg, nil) }, nil},
		{"glucose/lp", func() (*core.Plan, error) {
			return core.SolveLP(assays.GlucoseDAG(), cfg, core.FormulateOptions{}, nil)
		}, nil},
		{"enzyme4/manage", func() (*core.Plan, error) {
			res, err := core.Manage(assays.EnzymeDAG(4), cfg, core.ManageOptions{})
			if err != nil {
				return nil, err
			}
			return res.Plan, nil
		}, core.StaticAvailability(cfg)},
	} {
		base, err := pc.solve()
		if err != nil {
			t.Fatal(err)
		}
		mk := func(name string, p *core.Plan) subject { return planSubject(name, p, cfg, pc.avail) }
		planMutants(pc.name, base, mk)
		out = append(out, mk(pc.name+"/scale-up", scaled(base, 1.2)))
		if _, min := base.MinDispense(); min > 0 {
			out = append(out, mk(pc.name+"/scale-down", scaled(base, 0.5*cfg.LeastCount/min)))
		}
		for i := range base.Duals {
			p := clonePlan(base)
			p.Duals[i] += 0.05
			out = append(out, mk(fmt.Sprintf("%s/dual%d", pc.name, i), p))
		}
		for i := range base.ReducedCosts {
			p := clonePlan(base)
			p.ReducedCosts[i] += 0.05
			out = append(out, mk(fmt.Sprintf("%s/reduced-cost%d", pc.name, i), p))
		}
	}

	rp, live, patches, resolve := replanFixture(t)
	planMutants("residual", rp.Plan, func(name string, p *core.Plan) subject {
		return residualSubject(name, &core.ResidualPlan{Plan: p, Residual: rp.Residual, Method: rp.Method}, cfg, live)
	})
	for _, b := range rp.Residual.Bindings {
		b := b
		shrunk := func(id int, port string) (float64, bool) {
			v, ok := live(id, port)
			if id == b.SourceID && port == b.SourcePort {
				v *= 0.9
			}
			return v, ok
		}
		out = append(out, residualSubject("residual/live", rp, cfg, shrunk))
	}
	pcs := make([]int, 0, len(patches))
	for pc := range patches {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	for _, pc := range pcs {
		mutated := make(map[int]float64, len(patches))
		for k, v := range patches {
			mutated[k] = v
		}
		mutated[pc] += 0.5
		out = append(out, patchSubject(fmt.Sprintf("residual/patch@%d", pc), rp, mutated, resolve))
	}
	out = append(out, patchSubject("residual/patch-unresolved", rp, map[int]float64{7: 1}, func(int) (int, int) { return -1, -1 }))
	return out
}

// replanFixture is E16's replanning fixture: in1,in2 → mix 1:3 →
// incubate → sense, executed through the mix and re-solved against a
// 37.5 nl live vessel, with the patch map the repair engine would
// build (pc 100+i for the i-th replanned edge in id order).
func replanFixture(t testing.TB) (*core.ResidualPlan, core.Measure, map[int]float64, func(int) (int, int)) {
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
	live := func(int, string) (float64, bool) { return 37.5, true }
	rp, err := core.SolveResidual(r, core.DefaultConfig(), live)
	if err != nil {
		t.Fatal(err)
	}
	vols := rp.EdgeVolumes()
	origs := make([]int, 0, len(vols))
	for orig := range vols {
		origs = append(origs, orig)
	}
	sort.Ints(origs)
	patches, edges := map[int]float64{}, map[int]int{}
	for i, orig := range origs {
		patches[100+i] = vols[orig]
		edges[100+i] = orig
	}
	resolve := func(pc int) (int, int) {
		if e, ok := edges[pc]; ok {
			return e, -1
		}
		return -1, -1
	}
	return rp, live, patches, resolve
}

func clonePlan(p *core.Plan) *core.Plan {
	q := *p
	q.NodeVolume = append([]float64(nil), p.NodeVolume...)
	q.EdgeVolume = append([]float64(nil), p.EdgeVolume...)
	q.Production = append([]float64(nil), p.Production...)
	q.Duals = append([]float64(nil), p.Duals...)
	q.ReducedCosts = append([]float64(nil), p.ReducedCosts...)
	return &q
}

// TestTiersAgreeOnE16Mutants: every mutant of the E16 kill matrix gets
// the exact tier's verdict from the two-tier checkers (every seventh
// under the race detector or -short).
func TestTiersAgreeOnE16Mutants(t *testing.T) {
	ms := e16Mutants(t)
	if len(ms) != 1986 {
		t.Fatalf("enumerated %d mutants, the E16 kill matrix has 1986", len(ms))
	}
	step := 1
	if raceEnabled || testing.Short() {
		step = 7
	}
	for i := 0; i < len(ms); i += step {
		if v := agree(t, ms[i]); v == "pass" {
			t.Errorf("%s: mutant survived", ms[i].name)
		}
	}
}

// nearest is the float64 nearest to an exact value.
func nearest(x *big.Rat) float64 {
	f, _ := x.Float64()
	return f
}

func ratOf(v float64) *big.Rat { return new(big.Rat).SetFloat64(v) }

// upperEdge is the exact b + tol·(1+|b|): the largest value a compared
// quantity may take against reference b before it exceeds it.
func upperEdge(b *big.Rat, tol float64) *big.Rat {
	band := new(big.Rat).Abs(b)
	band.Add(band, big.NewRat(1, 1))
	band.Mul(band, ratOf(tol))
	return band.Add(band, b)
}

// ulps steps v by k ulps toward dir (±Inf).
func ulps(v float64, k int, dir float64) float64 {
	for ; k > 0; k-- {
		v = math.Nextafter(v, dir)
	}
	return v
}

// boundaryPlans moves one compared quantity of a passing plan to 0, 1
// and 2 ulps inside and outside its tolerance edge, for one check of
// each kind: capacity, non-negativity, conservation, availability, LP
// reduced-cost consistency and patch values. Offset k > 0 lies outside
// the edge (the check fails exactly), k = 0 on the float64 nearest the
// edge, k < 0 inside.
func boundaryPlans(t *testing.T) map[int][]subject {
	cfg := core.DefaultConfig()
	out := map[int][]subject{}
	add := func(k int, s subject) { out[k] = append(out[k], s) }
	offsets := []int{-2, -1, 0, 1, 2}
	step := func(edge float64, k int, outward float64) float64 {
		if k < 0 {
			return ulps(edge, -k, -outward)
		}
		return ulps(edge, k, outward)
	}

	// One input node holding v: capacity at MaxCapacity, and the
	// non-negativity edge v = −tol/(1−tol).
	g := dag.New()
	g.AddInput("a")
	source := func(v float64) *core.Plan {
		return &core.Plan{Graph: g, Method: "dagsolve", NodeVolume: []float64{v}, Production: []float64{v}, EdgeVolume: []float64{}}
	}
	capEdge := nearest(upperEdge(ratOf(cfg.MaxCapacity), lp.FeasCheckTol))
	tol := ratOf(lp.FeasCheckTol)
	negEdge := nearest(new(big.Rat).Neg(new(big.Rat).Quo(tol, new(big.Rat).Sub(big.NewRat(1, 1), tol))))
	for _, k := range offsets {
		add(k, planSubject(fmt.Sprintf("capacity/max%+d", k), source(step(capEdge, k, math.Inf(1))), cfg, nil))
		add(k, planSubject(fmt.Sprintf("capacity/negative%+d", k), source(step(negEdge, k, math.Inf(-1))), cfg, nil))
	}

	// Conservation: glucose's first non-source node against the exact
	// sum of its inbound dispenses.
	base, err := core.DAGSolve(assays.GlucoseDAG(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var node *dag.Node
	for _, n := range base.Graph.Nodes() {
		if n != nil && !n.IsSource() {
			node = n
			break
		}
	}
	in := new(big.Rat)
	for _, e := range node.In() {
		in.Add(in, ratOf(base.EdgeVolume[e.ID()]))
	}
	consEdge := nearest(upperEdge(in, lp.FeasCheckTol))
	for _, k := range offsets {
		p := clonePlan(base)
		p.NodeVolume[node.ID()] = step(consEdge, k, math.Inf(1))
		add(k, planSubject(fmt.Sprintf("conservation/node-input%+d", k), p, cfg, nil))
	}

	// Availability: the replanning fixture's live reading a, against
	// its constrained input's draw d; d exceeds a's band below
	// a = (d − tol)/(1 + tol).
	rp, _, patches, resolve := replanFixture(t)
	var ci *dag.Node
	for _, n := range rp.Plan.Graph.Nodes() {
		if n != nil && n.Kind == dag.ConstrainedInput {
			ci = n
			break
		}
	}
	d := ratOf(rp.Plan.NodeVolume[ci.ID()])
	one := big.NewRat(1, 1)
	availEdge := nearest(new(big.Rat).Quo(new(big.Rat).Sub(d, tol), new(big.Rat).Add(one, tol)))
	for _, k := range offsets {
		a := step(availEdge, k, math.Inf(-1))
		live := func(int, string) (float64, bool) { return a, true }
		add(k, residualSubject(fmt.Sprintf("availability/limit%+d", k), rp, cfg, live))
	}

	// Patch value: the first patched pc against its certified volume.
	pcs := make([]int, 0, len(patches))
	for pc := range patches {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	patchEdge := nearest(upperEdge(ratOf(patches[pcs[0]]), lp.SolutionTol))
	for _, k := range offsets {
		mutated := map[int]float64{}
		for pc, v := range patches {
			mutated[pc] = v
		}
		mutated[pcs[0]] = step(patchEdge, k, math.Inf(1))
		add(k, patchSubject(fmt.Sprintf("patch/value%+d", k), rp, mutated, resolve))
	}

	// LP reduced cost: glucose LP's first carried reduced cost against
	// the exact c_j − Σ_i y_i·a_ij, in the checker's min-form (σ = −1
	// for the maximizing formulation).
	lpBase, err := core.SolveLP(assays.GlucoseDAG(), cfg, core.FormulateOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.Formulate(lpBase.Graph, cfg, core.FormulateOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sigma := 1.0
	if f.Prob.Direction() == lp.Maximize {
		sigma = -1
	}
	const j = 0
	r := ratOf(sigma * f.Prob.Objective(lp.VarID(j)))
	for i := 0; i < f.Prob.NumConstraints(); i++ {
		terms, _, _ := f.Prob.Constraint(lp.ConID(i))
		for _, tm := range terms {
			if tm.Var == lp.VarID(j) {
				r.Sub(r, new(big.Rat).Mul(ratOf(sigma*lpBase.Duals[i]), ratOf(tm.Coef)))
			}
		}
	}
	rcEdge := nearest(upperEdge(r, lp.SolutionTol))
	for _, k := range offsets {
		p := clonePlan(lpBase)
		p.ReducedCosts[j] = sigma * step(rcEdge, k, math.Inf(1))
		add(k, planSubject(fmt.Sprintf("lp/reduced-cost%+d", k), p, cfg, nil))
	}
	return out
}

// TestTiersAgreeAtToleranceEdges: where a compared quantity sits on or
// just outside its tolerance edge, the float tier cannot prove it and
// the exact tier decides; just inside, the verdicts still agree. This
// keeps the fallback path covered by passing and failing inputs alike.
func TestTiersAgreeAtToleranceEdges(t *testing.T) {
	byOffset := boundaryPlans(t)
	exactPasses := 0
	for k, subjects := range byOffset {
		for _, s := range subjects {
			v := agree(t, s)
			if k > 0 && v == "pass" {
				t.Errorf("%s: passes outside its tolerance edge", s.name)
			}
			if k >= 0 && s.floatDecides() {
				t.Errorf("%s: the float tier proved a quantity on or past its tolerance edge", s.name)
			}
			if k >= 0 && v == "pass" {
				exactPasses++
			}
			if s.chargesBudget {
				agreeUnderBudget(t, s, sweepPoints())
			}
		}
	}
	t.Logf("%d edge plans the float tier left undecided passed in the exact tier", exactPasses)
}

// FuzzCertifyTiers sets one field of a passing plan, or one patched
// volume, to an arbitrary float64 bit pattern (NaN, ±Inf, subnormals
// and values at every binade included) and requires the two-tier
// verdict to be the exact tier's.
func FuzzCertifyTiers(f *testing.F) {
	cfg := core.DefaultConfig()
	glucose, err := core.DAGSolve(assays.GlucoseDAG(), cfg, nil)
	if err != nil {
		f.Fatal(err)
	}
	glucoseLP, err := core.SolveLP(assays.GlucoseDAG(), cfg, core.FormulateOptions{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	rp, live, patches, resolve := replanFixture(f)
	pcs := make([]int, 0, len(patches))
	for pc := range patches {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	bases := []*core.Plan{glucose, glucoseLP, rp.Plan}

	for _, bits := range []uint64{
		math.Float64bits(0), math.Float64bits(math.Copysign(0, -1)), 1, math.Float64bits(math.MaxFloat64),
		math.Float64bits(math.Inf(1)), math.Float64bits(math.NaN()), math.Float64bits(100.001),
		math.Float64bits(1e-5), math.Float64bits(-1e-6), math.Float64bits(37.5),
	} {
		for which := uint8(0); which < 4; which++ {
			f.Add(which, uint8(which), uint16(which), bits)
		}
	}
	f.Fuzz(func(t *testing.T, which, field uint8, index uint16, bits uint64) {
		v := math.Float64frombits(bits)
		if int(which)%(len(bases)+1) == len(bases) {
			mutated := map[int]float64{}
			for pc, w := range patches {
				mutated[pc] = w
			}
			mutated[pcs[int(index)%len(pcs)]] = v
			agree(t, patchSubject("patches", rp, mutated, resolve))
			return
		}
		base := bases[int(which)%(len(bases)+1)]
		p := clonePlan(base)
		fields := [][]float64{p.NodeVolume, p.Production, p.EdgeVolume, p.Duals, p.ReducedCosts}
		s := fields[int(field)%len(fields)]
		if len(s) == 0 {
			return
		}
		s[int(index)%len(s)] = v
		if base == rp.Plan {
			agree(t, residualSubject("residual", &core.ResidualPlan{Plan: p, Residual: rp.Residual, Method: rp.Method}, cfg, live))
			return
		}
		agree(t, planSubject("plan", p, cfg, nil))
	})
}

// BenchmarkCheckResidual certifies an enzyme3 replan captured from a
// harsh-fault fluidvm -replan run.
func BenchmarkCheckResidual(b *testing.B) {
	r := enzyme3HarshReplan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := certify.CheckResidual(r.rp, r.cfg, r.live); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckPatches certifies that replan's patch map.
func BenchmarkCheckPatches(b *testing.B) {
	r := enzyme3HarshReplan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := certify.CheckPatches(r.rp, r.patches, r.resolve); err != nil {
			b.Fatal(err)
		}
	}
}

// enzyme3HarshReplan is the first replan of enzyme3 under harsh faults
// (fault seed 1).
func enzyme3HarshReplan(b *testing.B) replan {
	rs := captureReplans(b, "enzyme3", assays.EnzymeSource(3), "harsh", 1)
	if len(rs) == 0 {
		b.Fatal("enzyme3 harsh seed 1 did not replan")
	}
	return rs[0]
}
