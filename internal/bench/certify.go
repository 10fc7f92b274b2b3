package bench

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"aquavol/internal/assays"
	"aquavol/internal/certify"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/lang"
)

// E16: the proof-carrying-plans mutation matrix. The certification layer
// claims that no plan a buggy (or sabotaged) solver could emit reaches
// execution; this experiment earns that claim by enumerating every
// single-field perturbation of every shipped plan — each node volume,
// production, edge volume, dual, and reduced cost, plus coherent
// over-capacity and under-least-count scalings, shrunken live boundary
// readings, and corrupted instruction patches — and asserting that the
// checker kills each mutant with exactly one typed cause. A surviving
// mutant fails the experiment (and the CI gate built on it).
//
// The kill table is deterministic: mutants are enumerated in id order
// and the checker reports its first violation deterministically, so two
// runs render byte-identical tables (diffed in CI). Wall-clock numbers —
// the certify-vs-pipeline overhead — appear only in the JSON report.

// certifyLiveVol is the live boundary reading the residual fixture is
// solved against; mutants shrink it to 90%.
const certifyLiveVol = 37.5

// CertifyCell is one (case, field) aggregate of the mutation matrix.
type CertifyCell struct {
	Case    string         `json:"case"`
	Field   string         `json:"field"`
	Mutants int            `json:"mutants"`
	Killed  int            `json:"killed"`
	Causes  map[string]int `json:"causes"`
}

// CertifyOverhead is one assay's certify-vs-solve timing: what
// CheckPlan adds on top of the planning stage it gates.
type CertifyOverhead struct {
	Assay string `json:"assay"`
	// Baseline names what Solve times (the managed planning pipeline
	// certification fail-stops).
	Baseline    string     `json:"baseline"`
	Solve       SolverStat `json:"solve"`
	Certify     SolverStat `json:"certify"`
	OverheadPct float64    `json:"overhead_pct"`
}

// CertifyReport is the JSON shape of BENCH_certify.json.
type CertifyReport struct {
	Schema  string        `json:"schema"`
	Cells   []CertifyCell `json:"cells"`
	Mutants int           `json:"mutants"`
	Killed  int           `json:"killed"`
	// Overhead records certify p50 against the gated planning stage's
	// p50, per shipped assay. The exact dyadic checker runs in tens of
	// microseconds, so on solve-dominated assays (enzyme4's managed LP
	// hierarchy) it stays a few percent; on microsecond-scale assays
	// (glucose) the ratio is dominated by how trivially cheap the solve
	// is, and the absolute cost is the meaningful number — see
	// EXPERIMENTS.md E16.
	Overhead []CertifyOverhead `json:"overhead"`
}

// certifyCauses names the typed sentinels in severity-table order; a
// killed mutant must match exactly one.
var certifyCauses = []struct {
	name string
	err  error
}{
	{"shape", certify.ErrShape},
	{"conservation", certify.ErrConservation},
	{"capacity", certify.ErrCapacity},
	{"least-count", certify.ErrLeastCount},
	{"availability", certify.ErrAvailability},
	{"primal", certify.ErrPrimal},
	{"dual", certify.ErrDual},
	{"gap", certify.ErrGap},
	{"patch", certify.ErrPatch},
	{"hash", certify.ErrHash},
}

// certifyMutant is one enumerated perturbation: check applies it to a
// fresh clone and runs the certifier.
type certifyMutant struct {
	cse, field string
	check      func() error
}

// clonePlan deep-copies a plan's numeric payload (the graph is shared:
// mutants perturb certificates, never the problem).
func clonePlan(p *core.Plan) *core.Plan {
	q := *p
	q.NodeVnorm = append([]float64(nil), p.NodeVnorm...)
	q.EdgeVnorm = append([]float64(nil), p.EdgeVnorm...)
	q.NodeVolume = append([]float64(nil), p.NodeVolume...)
	q.EdgeVolume = append([]float64(nil), p.EdgeVolume...)
	q.Production = append([]float64(nil), p.Production...)
	q.Duals = append([]float64(nil), p.Duals...)
	q.ReducedCosts = append([]float64(nil), p.ReducedCosts...)
	q.Underflows = append([]core.Underflow(nil), p.Underflows...)
	return &q
}

// planMutants enumerates every single-field perturbation of one solved
// plan, plus the two coherent scalings that preserve conservation.
func planMutants(cse string, base *core.Plan, c core.Config, avail core.Availability) []certifyMutant {
	check := func(mutate func(*core.Plan)) func() error {
		return func() error {
			p := clonePlan(base)
			mutate(p)
			return certify.CheckPlan(p, c, avail)
		}
	}
	var ms []certifyMutant
	for _, n := range base.Graph.Nodes() {
		if n == nil {
			continue
		}
		id := n.ID()
		ms = append(ms,
			certifyMutant{cse, "node-volume", check(func(p *core.Plan) { p.NodeVolume[id] += 0.5 })},
			certifyMutant{cse, "production", check(func(p *core.Plan) { p.Production[id] -= 0.5 })})
	}
	for _, e := range base.Graph.Edges() {
		if e == nil {
			continue
		}
		id := e.ID()
		ms = append(ms,
			certifyMutant{cse, "edge-volume", check(func(p *core.Plan) { p.EdgeVolume[id] += 0.5 })})
	}
	scale := func(k float64) func(*core.Plan) {
		return func(p *core.Plan) {
			for i := range p.NodeVolume {
				p.NodeVolume[i] *= k
			}
			for i := range p.Production {
				p.Production[i] *= k
			}
			for i := range p.EdgeVolume {
				p.EdgeVolume[i] *= k
			}
		}
	}
	ms = append(ms, certifyMutant{cse, "scale-up", check(scale(1.2))})
	if _, min := base.MinDispense(); min > 0 {
		ms = append(ms, certifyMutant{cse, "scale-down", check(scale(0.5 * c.LeastCount / min))})
	}
	for i := range base.Duals {
		i := i
		ms = append(ms,
			certifyMutant{cse, "dual", check(func(p *core.Plan) { p.Duals[i] += 0.05 })})
	}
	for i := range base.ReducedCosts {
		i := i
		ms = append(ms,
			certifyMutant{cse, "reduced-cost", check(func(p *core.Plan) { p.ReducedCosts[i] += 0.05 })})
	}
	return ms
}

// certifyResidual builds and solves the replanning fixture (in1,in2 →
// mix 1:3 → incubate → sense, executed through the mix): the residual is
// fed by one live vessel holding certifyLiveVol.
func certifyResidual() (*core.ResidualPlan, error) {
	g := dag.New()
	in1 := g.AddInput("in1")
	in2 := g.AddInput("in2")
	m := g.AddMix("M", dag.Part{Source: in1, Ratio: 1}, dag.Part{Source: in2, Ratio: 3})
	h := g.AddUnary(dag.Incubate, "H", m)
	g.AddUnary(dag.Sense, "end", h)
	done := map[int]bool{in1.ID(): true, in2.ID(): true, m.ID(): true}
	r, err := dag.ExtractResidual(g, func(n *dag.Node) bool { return done[n.ID()] })
	if err != nil {
		return nil, err
	}
	return core.SolveResidual(r, cfg(), func(int, string) (float64, bool) { return certifyLiveVol, true })
}

// residualMutants enumerates replan-side perturbations: plan fields of
// the residual plan, a shrunken live reading per boundary, and a
// corrupted or unresolvable instruction patch per patched pc.
func residualMutants(rp *core.ResidualPlan, c core.Config) []certifyMutant {
	cse := "residual/" + rp.Method
	liveFull := func(int, string) (float64, bool) { return certifyLiveVol, true }
	check := func(mutate func(*core.Plan)) func() error {
		return func() error {
			q := clonePlan(rp.Plan)
			mutate(q)
			return certify.CheckResidual(&core.ResidualPlan{Plan: q, Residual: rp.Residual, Method: rp.Method}, c, liveFull)
		}
	}
	var ms []certifyMutant
	for _, n := range rp.Plan.Graph.Nodes() {
		if n == nil {
			continue
		}
		id := n.ID()
		ms = append(ms,
			certifyMutant{cse, "node-volume", check(func(p *core.Plan) { p.NodeVolume[id] += 0.5 })},
			certifyMutant{cse, "production", check(func(p *core.Plan) { p.Production[id] -= 0.5 })})
	}
	for _, e := range rp.Plan.Graph.Edges() {
		if e == nil {
			continue
		}
		id := e.ID()
		ms = append(ms,
			certifyMutant{cse, "edge-volume", check(func(p *core.Plan) { p.EdgeVolume[id] += 0.5 })})
	}
	for _, b := range rp.Residual.Bindings {
		b := b
		ms = append(ms, certifyMutant{cse, "live", func() error {
			shrunk := func(id int, port string) (float64, bool) {
				if id == b.SourceID && port == b.SourcePort {
					return 0.9 * certifyLiveVol, true
				}
				return certifyLiveVol, true
			}
			return certify.CheckResidual(rp, c, shrunk)
		}})
	}

	// Patches exactly as the repair engine builds them: pc → re-planned
	// edge volume, enumerated in original-edge-id order for determinism.
	vols := rp.EdgeVolumes()
	origs := make([]int, 0, len(vols))
	for orig := range vols {
		origs = append(origs, orig)
	}
	sort.Ints(origs)
	patches := map[int]float64{}
	edges := map[int]int{}
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
	for i := range origs {
		pc := 100 + i
		ms = append(ms, certifyMutant{cse, "patch", func() error {
			mutated := make(map[int]float64, len(patches))
			for k, v := range patches {
				mutated[k] = v
			}
			mutated[pc] += 0.5
			return certify.CheckPatches(rp, mutated, resolve)
		}})
	}
	ms = append(ms, certifyMutant{cse, "patch-unresolved", func() error {
		return certify.CheckPatches(rp, map[int]float64{7: 1}, func(int) (int, int) { return -1, -1 })
	}})
	return ms
}

// certifyMatrix enumerates and runs the full mutation matrix. Any
// surviving mutant, untyped error, or multi-cause kill is an error.
func certifyMatrix() ([]CertifyCell, error) {
	c := cfg()
	var ms []certifyMutant

	type planCase struct {
		name  string
		solve func() (*core.Plan, error)
		avail core.Availability
	}
	for _, pc := range []planCase{
		{"fig2/dagsolve", func() (*core.Plan, error) { return core.DAGSolve(assays.Fig2DAG(), c, nil) }, nil},
		{"glucose/dagsolve", func() (*core.Plan, error) { return core.DAGSolve(assays.GlucoseDAG(), c, nil) }, nil},
		{"glucose/lp", func() (*core.Plan, error) {
			return core.SolveLP(assays.GlucoseDAG(), c, core.FormulateOptions{}, nil)
		}, nil},
		{"enzyme4/manage", func() (*core.Plan, error) {
			res, err := core.Manage(assays.EnzymeDAG(4), c, core.ManageOptions{})
			if err != nil {
				return nil, err
			}
			return res.Plan, nil
		}, core.StaticAvailability(c)},
	} {
		base, err := pc.solve()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pc.name, err)
		}
		if !base.Feasible() {
			return nil, fmt.Errorf("%s: fixture plan infeasible", pc.name)
		}
		if err := certify.CheckPlan(base, c, pc.avail); err != nil {
			return nil, fmt.Errorf("%s: unmutated plan failed certification: %w", pc.name, err)
		}
		ms = append(ms, planMutants(pc.name, base, c, pc.avail)...)
	}

	rp, err := certifyResidual()
	if err != nil {
		return nil, fmt.Errorf("residual fixture: %w", err)
	}
	if err := certify.CheckResidual(rp, c, func(int, string) (float64, bool) { return certifyLiveVol, true }); err != nil {
		return nil, fmt.Errorf("unmutated residual failed certification: %w", err)
	}
	ms = append(ms, residualMutants(rp, c)...)

	// Run every mutant, aggregating kills per (case, field) in
	// enumeration order.
	var cells []CertifyCell
	idx := map[string]int{}
	for _, m := range ms {
		key := m.cse + "\x00" + m.field
		i, ok := idx[key]
		if !ok {
			i = len(cells)
			idx[key] = i
			cells = append(cells, CertifyCell{Case: m.cse, Field: m.field, Causes: map[string]int{}})
		}
		cells[i].Mutants++
		err := m.check()
		if err == nil {
			return nil, fmt.Errorf("%s/%s: mutant %d survived certification", m.cse, m.field, cells[i].Mutants)
		}
		if !errors.Is(err, certify.ErrCertificate) {
			return nil, fmt.Errorf("%s/%s: mutant died with a non-certification error: %w", m.cse, m.field, err)
		}
		var matched []string
		for _, cz := range certifyCauses {
			if errors.Is(err, cz.err) {
				matched = append(matched, cz.name)
			}
		}
		if len(matched) != 1 {
			return nil, fmt.Errorf("%s/%s: mutant matches %d typed causes %v, want exactly 1 (%w)",
				m.cse, m.field, len(matched), matched, err)
		}
		cells[i].Killed++
		cells[i].Causes[matched[0]]++
	}
	return cells, nil
}

// fmtCauses renders a cell's cause histogram deterministically, in
// severity-table order.
func fmtCauses(causes map[string]int) string {
	var parts []string
	for _, cz := range certifyCauses {
		if n := causes[cz.name]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", cz.name, n))
		}
	}
	return strings.Join(parts, " ")
}

// Certify runs E16: the mutation kill matrix plus the
// certify-vs-pipeline overhead measurement, returning the deterministic
// table and the JSON report.
func Certify() (*Table, *CertifyReport, error) {
	cells, err := certifyMatrix()
	if err != nil {
		return nil, nil, err
	}
	report := &CertifyReport{Schema: "aquavol/bench-certify/v1", Cells: cells}
	t := &Table{
		ID:     "E16",
		Title:  "proof-carrying plans: mutation kill matrix (certify layer)",
		Header: []string{"case", "field", "mutants", "killed", "causes"},
		Notes: []string{
			"every node volume, production, edge volume, dual, reduced cost, live boundary, and patch perturbed once; plus coherent over-capacity and under-least-count scalings",
			"the experiment errors out unless every mutant is killed with exactly one typed cause — the 100% kill rate is the table's invariant, not a statistic",
			"per-assay certify-vs-solve overhead is reported only in BENCH_certify.json, keeping this table byte-identical across runs",
		},
	}
	for _, cell := range cells {
		report.Mutants += cell.Mutants
		report.Killed += cell.Killed
		t.Rows = append(t.Rows, []string{
			cell.Case, cell.Field,
			fmt.Sprintf("%d", cell.Mutants), fmt.Sprintf("%d", cell.Killed),
			fmtCauses(cell.Causes),
		})
	}
	t.Rows = append(t.Rows, []string{"total", "", fmt.Sprintf("%d", report.Mutants),
		fmt.Sprintf("%d", report.Killed), ""})

	// Overhead: what certification adds to the planning stage it gates,
	// per shipped assay. fluidc certifies after compile+Manage, so that
	// pipeline is the baseline.
	c := cfg()
	for _, oc := range []struct {
		assay, baseline string
		src             string
		g               func() *dag.Graph
	}{
		{"glucose", "compile+manage", assays.GlucoseSource, nil},
		{"enzyme4", "manage", "", func() *dag.Graph { return assays.EnzymeDAG(4) }},
	} {
		oc := oc
		graph := func() (*dag.Graph, error) {
			if oc.g != nil {
				return oc.g(), nil
			}
			ep, err := lang.Compile(oc.src)
			if err != nil {
				return nil, err
			}
			return ep.Graph, nil
		}
		g, err := graph()
		if err != nil {
			return nil, nil, err
		}
		res, err := core.Manage(g, c, core.ManageOptions{})
		if err != nil {
			return nil, nil, err
		}
		solve, err := measure(oc.assay, oc.baseline, func() error {
			g, err := graph()
			if err != nil {
				return err
			}
			_, err = core.Manage(g, c, core.ManageOptions{})
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		cert, err := measure(oc.assay, "certify", func() error {
			return certify.CheckPlan(res.Plan, c, core.StaticAvailability(c))
		})
		if err != nil {
			return nil, nil, err
		}
		report.Overhead = append(report.Overhead, CertifyOverhead{
			Assay: oc.assay, Baseline: oc.baseline, Solve: solve, Certify: cert,
			OverheadPct: 100 * cert.P50Micros / solve.P50Micros,
		})
	}
	return t, report, nil
}
