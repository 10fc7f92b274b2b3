// Package bench regenerates every table and figure of the paper's
// evaluation (§4) on this reproduction: the Fig. 5 DAGSolve worked
// example, the glucose/glycomics/enzyme case studies (Figs. 12-14), the
// rounding-error experiment, Table 2's run-time and regeneration
// comparison, the §4.3 LP-with-extra-constraints ablation, and the ILP
// comparison. The volbench CLI and the repository's testing.B benchmarks
// both drive this package.
package bench

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"aquavol/internal/assays"
	"aquavol/internal/budget"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/ilp"
	"aquavol/internal/lp"
	"aquavol/internal/regen"
)

// Table is one rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func cfg() core.Config { return core.DefaultConfig() }

// timeItMinReps is the fewest timed repetitions timeIt takes. A 50 ms
// budget alone gives a 5–10 ms solve (E6b's N=5 LP) only 5–10 samples,
// whose median one slow stretch of a shared host can move; 21 keep the
// median stable while costing a sub-millisecond case nothing extra.
const timeItMinReps = 21

// timeIt reports f's median wall time. One untimed call first pays f's
// cold costs (first-use allocations such as an LP tableau); timed
// repetitions then run until ~50 ms of samples and at least
// timeItMinReps repetitions are in.
func timeIt(f func()) time.Duration {
	f()
	sorted, _, _ := sample(func() error { f(); return nil }, timeItMinReps, 10000, 50*time.Millisecond)
	return percentile(sorted, 0.5)
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3g s", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3g ms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.3g µs", float64(d.Nanoseconds())/1000)
	}
}

func fmtVol(nl float64) string {
	if nl < 1 {
		return fmt.Sprintf("%.1f pl", nl*1000)
	}
	return fmt.Sprintf("%.2f nl", nl)
}

// Fig5 reproduces the DAGSolve worked example (Fig. 5 a/b): Vnorms and
// dispensed volumes of the Fig. 2 assay.
func Fig5() *Table {
	g := assays.Fig2DAG()
	plan, err := core.DAGSolve(g, cfg(), nil)
	if err != nil {
		panic(err)
	}
	t := &Table{
		ID:     "E1/Fig5",
		Title:  "DAGSolve on the Fig. 2 assay (paper Fig. 5)",
		Header: []string{"node", "Vnorm", "volume (nl)", "paper"},
	}
	paper := map[string]string{
		"A": "≈13", "B": "100 (max)", "C": "≈83", "K": "≈65",
		"L": "≈72", "M": "≈98", "N": "≈98",
	}
	for _, name := range []string{"A", "B", "C", "K", "L", "M", "N"} {
		n := g.NodeByName(name)
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.4g", plan.NodeVnorm[n.ID()]),
			fmt.Sprintf("%.2f", plan.NodeVolume[n.ID()]),
			paper[name],
		})
	}
	edge := func(from, to string) float64 {
		for _, e := range g.Edges() {
			if e.From.Name == from && e.To.Name == to {
				return plan.EdgeVolume[e.ID()]
			}
		}
		return 0
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("edges: B→K %.1f (paper 52), B→L %.1f (48), C→L %.1f (24), C→N %.1f (59)",
			edge("B", "K"), edge("B", "L"), edge("C", "L"), edge("C", "N")))
	return t
}

// Glucose reproduces the Fig. 12 / §4.2 glucose case study.
func Glucose() *Table {
	g := assays.GlucoseDAG()
	plan, err := core.DAGSolve(g, cfg(), nil)
	if err != nil {
		panic(err)
	}
	t := &Table{
		ID:     "E2/Fig12",
		Title:  "Glucose assay volumes (paper Fig. 12, §4.2)",
		Header: []string{"fluid", "Vnorm", "volume"},
	}
	for _, name := range []string{"Glucose", "Reagent", "Sample", "a", "b", "c", "d", "e"} {
		n := g.NodeByName(name)
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.4g", plan.NodeVnorm[n.ID()]),
			fmtVol(plan.NodeVolume[n.ID()]),
		})
	}
	_, min := plan.MinDispense()
	t.Notes = append(t.Notes,
		fmt.Sprintf("smallest dispense %s (paper: 3.3 nl); feasible=%v; fully static: volumes assigned at compile time",
			fmtVol(min), plan.Feasible()))
	return t
}

// Glycomics reproduces the Fig. 13 partitioning case study.
func Glycomics() *Table {
	g := assays.GlycomicsDAG()
	sp, err := core.NewStagedPlan(g, cfg())
	if err != nil {
		panic(err)
	}
	t := &Table{
		ID:     "E3/Fig13",
		Title:  "Glycomics assay: partitioning at unknown-volume separations (paper Fig. 13)",
		Header: []string{"constrained input", "part", "share", "Vnorm", "source"},
	}
	for _, b := range sp.Partition.Bindings {
		pg := sp.Partition.Parts[b.Part]
		ci := pg.Node(b.NodeID)
		srcName := "input"
		if b.SourcePart >= 0 {
			srcName = g.Node(b.SourceID).Name
			if b.SourceUnknown {
				srcName += " (measured)"
			}
		} else {
			srcName = g.Node(b.SourceID).Name + " (static split)"
		}
		t.Rows = append(t.Rows, []string{
			ci.Name,
			fmt.Sprintf("%d", b.Part),
			fmt.Sprintf("%.3g", b.Share),
			fmt.Sprintf("%.4g", sp.Vnorms[b.Part].Node[b.NodeID]),
			srcName,
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d partitions (paper: 4); buffer3a splits 50/50 nl; X2 Vnorm = 1/204 ≈ %.5f matches the paper", sp.NumParts(), 1.0/204))
	return t
}

// Enzyme reproduces the Fig. 14 case study: baseline underflow, cascading,
// static replication, and their combination.
func Enzyme() *Table {
	c := cfg()
	t := &Table{
		ID:     "E4/Fig14",
		Title:  "Enzyme assay: cascading and static replication (paper Fig. 14, §4.2)",
		Header: []string{"configuration", "diluent Vnorm", "min dispense", "feasible", "paper min"},
	}
	row := func(name string, g *dag.Graph, paperMin string) {
		plan, err := core.DAGSolve(g, c, nil)
		if err != nil {
			panic(err)
		}
		dil := g.NodeByName("diluent")
		_, min := plan.MinDispense()
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.3g", plan.NodeVnorm[dil.ID()]),
			fmtVol(min),
			fmt.Sprintf("%v", plan.Feasible()),
			paperMin,
		})
	}
	base := assays.EnzymeDAG(4)
	row("baseline", base, "9.8 pl")

	casc := assays.EnzymeDAG(4)
	cascadeAll(casc)
	row("cascade 1:999 → three 1:9", casc, "65.6 pl (still underflow)")

	rep := assays.EnzymeDAG(4)
	replicateDiluent(rep)
	row("replicate diluent ×3", rep, "29.5 pl (still underflow)")

	both := assays.EnzymeDAG(4)
	cascadeAll(both)
	replicateDiluent(both)
	row("cascade + replicate", both, "196 pl (fixed)")

	// The automatic hierarchy.
	auto, err := core.Manage(assays.EnzymeDAG(4), c, core.ManageOptions{SkipLP: true})
	if err != nil {
		panic(err)
	}
	_, autoMin := auto.Plan.MinDispense()
	t.Rows = append(t.Rows, []string{
		"automatic (Fig. 6 hierarchy)", "-", fmtVol(autoMin),
		fmt.Sprintf("%v", auto.Plan.Feasible()),
		fmt.Sprintf("%d transforms", len(auto.Transforms)),
	})
	t.Notes = append(t.Notes,
		"dilution Vnorm 16/3 ≈ 5.33, diluent 54 → 81 (cascade) → 27 (cascade+replicate); all match the paper",
		"paper also reports '123 pl' for the first cascade node; that value is inconsistent with its own Vnorms (16/3 at intermediates, diluent 81), which give 655 pl — see EXPERIMENTS.md")
	return t
}

func cascadeAll(g *dag.Graph) {
	for _, name := range []string{"inh_dil4", "enz_dil4", "sub_dil4"} {
		if err := g.Cascade(g.NodeByName(name), 3); err != nil {
			panic(err)
		}
	}
}

func replicateDiluent(g *dag.Graph) {
	dil := g.NodeByName("diluent")
	groups := map[string]int{"inh": 0, "enz": 1, "sub": 2}
	if _, err := g.Replicate(dil, 3, func(e *dag.Edge) int {
		return groups[e.To.Name[:3]]
	}); err != nil {
		panic(err)
	}
}

// Rounding reproduces the §4.2 IVol rounding-error measurement.
func Rounding() *Table {
	c := cfg()
	t := &Table{
		ID:     "E5/rounding",
		Title:  "IVol rounding error at least count 0.1 nl (§4.2; paper: ≤2%)",
		Header: []string{"assay", "max ratio error", "mean ratio error", "feasible after rounding"},
	}
	add := func(name string, g *dag.Graph) *core.IntPlan {
		plan, err := core.DAGSolve(g, c, nil)
		if err != nil {
			panic(err)
		}
		ipl := core.Round(plan, c)
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.3g%%", 100*ipl.MaxRatioError),
			fmt.Sprintf("%.3g%%", 100*ipl.MeanRatioError),
			fmt.Sprintf("%v", ipl.Feasible()),
		})
		return ipl
	}
	gi := add("glucose", assays.GlucoseDAG())
	both := assays.EnzymeDAG(4)
	cascadeAll(both)
	replicateDiluent(both)
	ei := add("enzyme (cascaded+replicated)", both)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"average mean error across both: %.3g%% (paper reports no more than 2%%)",
		100*(gi.MeanRatioError+ei.MeanRatioError)/2))
	return t
}

// solveTimes measures DAGSolve and LP times plus LP constraint counts for
// one statically-known DAG.
func solveTimes(g *dag.Graph, extra core.FormulateOptions) (dagT, lpT time.Duration, constraints int) {
	c := cfg()
	dagT = timeIt(func() {
		_, err := core.DAGSolve(g, c, nil)
		if err != nil {
			panic(err)
		}
	})
	f, err := core.Formulate(g, c, extra, nil)
	if err != nil {
		panic(err)
	}
	constraints = f.Counts.Total()
	lpT = timeIt(func() {
		f2, _ := core.Formulate(g, c, extra, nil)
		_, err := f2.Solve(lp.Options{})
		if err != nil && err != core.ErrLPInfeasible {
			panic(err)
		}
	})
	return dagT, lpT, constraints
}

// glycomicsTimes measures the partitioned glycomics solve: the total over
// all four partitions, as the paper does.
func glycomicsTimes() (dagT, lpT time.Duration, constraints int) {
	c := cfg()
	g := assays.GlycomicsDAG()
	avail := func(part *dag.Graph) core.Availability {
		return func(ci *dag.Node) (float64, bool) {
			if ci.SourceIsInput {
				return ci.Share * c.MaxCapacity, true
			}
			return ci.Share * 40, true // assume 40 nl measured at each cut
		}
	}
	dagT = timeIt(func() {
		sp, err := core.NewStagedPlan(g, c)
		if err != nil {
			panic(err)
		}
		for i := 0; i < sp.NumParts(); i++ {
			vn := sp.Vnorms[i]
			if _, err := core.Dispense(vn, c, avail(sp.Partition.Parts[i])); err != nil {
				panic(err)
			}
		}
	})
	part, err := dag.Partition(g)
	if err != nil {
		panic(err)
	}
	constraints = 0
	for _, pg := range part.Parts {
		f, err := core.Formulate(pg, c, core.FormulateOptions{}, avail(pg))
		if err != nil {
			panic(err)
		}
		constraints += f.Counts.Total()
	}
	lpT = timeIt(func() {
		for _, pg := range part.Parts {
			f, err := core.Formulate(pg, c, core.FormulateOptions{}, avail(pg))
			if err != nil {
				panic(err)
			}
			if _, err := f.Solve(lp.Options{}); err != nil && err != core.ErrLPInfeasible {
				panic(err)
			}
		}
	})
	return dagT, lpT, constraints
}

// Table2 reproduces Table 2: DAGSolve vs LP run times, LP constraint
// counts, and regeneration counts without volume management. Enzyme10's
// LP solve needs a 1.03 GB dense tableau (under a second on a 2.1 GHz
// Xeon); it only runs when full is set, and its constraint count and
// DAGSolve time are always reported.
func Table2(full bool) *Table {
	t := &Table{
		ID:    "E6/Table2",
		Title: "DAGSolve vs LP vs regeneration (paper Table 2)",
		Header: []string{"assay", "DAGSolve", "LP", "LP/DAGSolve", "LP constraints (paper)",
			"regen count (paper)"},
	}
	c := cfg()
	addRow := func(name string, dagT, lpT time.Duration, cons int, paperCons string, regenCount int, paperRegen string) {
		ratio := "-"
		if lpT > 0 && dagT > 0 {
			ratio = fmt.Sprintf("%.0fx", float64(lpT)/float64(dagT))
		}
		lpS := fmtDur(lpT)
		if lpT == 0 {
			lpS = "(skipped; -full)"
			ratio = "-"
		}
		t.Rows = append(t.Rows, []string{
			name, fmtDur(dagT), lpS, ratio,
			fmt.Sprintf("%d (%s)", cons, paperCons),
			fmt.Sprintf("%d (%s)", regenCount, paperRegen),
		})
	}

	dagT, lpT, cons := solveTimes(assays.GlucoseDAG(), core.FormulateOptions{})
	rg := regen.Execute(assays.GlucoseDAG(), c, regen.ExecOptions{})
	addRow("Glucose", dagT, lpT, cons, "49", rg.Triggers, "2")

	dagT, lpT, cons = glycomicsTimes()
	addRow("Glycomics", dagT, lpT, cons, "84", 0, "n/a")

	dagT, lpT, cons = solveTimes(assays.EnzymeDAG(4), core.FormulateOptions{})
	rg = regen.Execute(assays.EnzymeDAG(4), c, regen.ExecOptions{})
	addRow("Enzyme", dagT, lpT, cons, "872", rg.Triggers, "85")

	e10 := assays.EnzymeDAG(10)
	c10 := cfg()
	dagT = timeIt(func() {
		if _, err := core.DAGSolve(e10, c10, nil); err != nil {
			panic(err)
		}
	})
	f10, err := core.Formulate(e10, c10, core.FormulateOptions{}, nil)
	if err != nil {
		panic(err)
	}
	var lp10 time.Duration
	if full {
		start := time.Now() //fluidvet:allow determinism wall-clock timing is the benchmark's measurement, reported not replayed
		if _, err := f10.Solve(lp.Options{}); err != nil && err != core.ErrLPInfeasible {
			panic(err)
		}
		lp10 = time.Since(start) //fluidvet:allow determinism wall-clock timing is the benchmark's measurement, reported not replayed
	}
	rg = regen.Execute(e10, c10, regen.ExecOptions{})
	addRow("Enzyme10", dagT, lp10, f10.Counts.Total(), "11258", rg.Triggers, "1313")

	t.Notes = append(t.Notes,
		"paper (750 MHz P3, Matlab LIPSOL): glucose ~0/0.08s, glycomics 0.003/0.28s, enzyme 0.016/0.73s, enzyme10 1.57s/20min",
		"absolute times differ (our simplex vs LIPSOL, modern CPU); the claim is the ratio and its growth with assay size",
		"with DAGSolve there are no regenerations (see E9)")
	return t
}

// LPAblation reproduces the §4.3 check that DAGSolve's speed does not come
// from its extra constraints: LP with flow conservation and equal outputs
// added remains far slower than DAGSolve.
func LPAblation() *Table {
	t := &Table{
		ID:     "E7/lp-ablation",
		Title:  "LP with DAGSolve's artificial constraints added (§4.3)",
		Header: []string{"assay", "DAGSolve", "LP (plain)", "LP (+flow conservation, equal outputs)", "plain/DS", "extra/DS"},
	}
	for _, a := range []struct {
		name string
		g    *dag.Graph
	}{
		{"Glucose", assays.GlucoseDAG()},
		{"Enzyme", assays.EnzymeDAG(4)},
	} {
		dagT, lpPlain, _ := solveTimes(a.g, core.FormulateOptions{})
		_, lpExtra, _ := solveTimes(a.g, core.FormulateOptions{FlowConservation: true, EqualOutputs: true})
		t.Rows = append(t.Rows, []string{
			a.name, fmtDur(dagT), fmtDur(lpPlain), fmtDur(lpExtra),
			fmt.Sprintf("%.0fx", float64(lpPlain)/float64(dagT)),
			fmt.Sprintf("%.0fx", float64(lpExtra)/float64(dagT)),
		})
	}
	t.Notes = append(t.Notes,
		"paper: extra constraints shrink the gap from ~80x to no less than ~60x; LP stays far slower than DAGSolve")
	return t
}

// ILPBounds bounds the E8 branch-and-bound comparison. The zero value
// selects the defaults: 20000 nodes and a 15 s wall-clock guard — the
// bounds are experiment configuration now, not constants buried in the
// harness, so callers (volbench flags, tests) can tighten or relax them.
type ILPBounds struct {
	// Nodes caps explored B&B nodes; 0 selects 20000.
	Nodes int
	// Time is the wall-clock guard on each ilp.Solve; 0 selects 15 s.
	Time time.Duration
	// Budget optionally bounds the whole experiment with a caller meter
	// (cooperative cancellation; charged per node and per LP pivot).
	Budget *budget.Meter
}

func (b ILPBounds) withDefaults() ILPBounds {
	if b.Nodes == 0 {
		b.Nodes = 20000
	}
	if b.Time == 0 {
		b.Time = 15 * time.Second
	}
	return b
}

// ILP reproduces the §4.3 ILP-vs-LP comparison: comparable on glucose,
// intractable on enzyme (the search stops at the wall-clock guard or
// the node budget, the analogue of the paper's 'ran for hours').
func ILP(b ILPBounds) *Table {
	b = b.withDefaults()
	c := cfg()
	t := &Table{
		ID:     "E8/ilp",
		Title:  "ILP (branch & bound) vs LP (§4.3)",
		Header: []string{"assay", "LP", "ILP", "ILP status", "nodes explored"},
	}
	// The raw enzyme assay's relaxation is infeasible, which our branch &
	// bound proves at the root node (the paper's 2005-era solver instead
	// "ran for hours"). The interesting integer search is the feasible
	// cascaded+replicated enzyme, so that is what we time.
	enzyme := assays.EnzymeDAG(4)
	cascadeAll(enzyme)
	replicateDiluent(enzyme)
	var enzymeStop string
	for _, a := range []struct {
		name string
		g    *dag.Graph
	}{
		{"Glucose", assays.GlucoseDAG()},
		{"Enzyme (cascaded+replicated)", enzyme},
	} {
		// Scale to least-count units so integrality is the IVol condition.
		unitCfg := core.Config{
			MaxCapacity: c.MaxCapacity / c.LeastCount, // 1000 units
			LeastCount:  1,
			OutputSkew:  c.OutputSkew,
		}
		f, err := core.Formulate(a.g, unitCfg, core.FormulateOptions{}, nil)
		if err != nil {
			panic(err)
		}
		lpT := timeIt(func() {
			f2, _ := core.Formulate(a.g, unitCfg, core.FormulateOptions{}, nil)
			_, err := f2.Solve(lp.Options{})
			if err != nil && err != core.ErrLPInfeasible {
				panic(err)
			}
		})
		start := time.Now() //fluidvet:allow determinism wall-clock timing is the benchmark's measurement, reported not replayed
		res, err := ilp.Solve(f.Prob, ilp.Options{MaxNodes: b.Nodes, MaxTime: b.Time, Budget: b.Budget})
		if err != nil {
			panic(err)
		}
		ilpT := time.Since(start) //fluidvet:allow determinism wall-clock timing is the benchmark's measurement, reported not replayed
		enzymeStop = ilpStop(res)
		t.Rows = append(t.Rows, []string{
			a.name, fmtDur(lpT), fmtDur(ilpT), enzymeStop,
			fmt.Sprintf("%d", res.Nodes),
		})
	}
	var how string
	switch enzymeStop {
	case "deadline":
		how = fmt.Sprintf("stops at the %v wall-clock guard, so its node count depends on the wall clock", b.Time)
	case "node budget":
		how = fmt.Sprintf("exhausts the %d-node budget", b.Nodes)
	default:
		how = "ends with status " + enzymeStop
	}
	t.Notes = append(t.Notes,
		"paper: ILP (LP_Solve 5.5) matched LP on glucose but 'ran for hours' on enzyme",
		"here: the raw enzyme ILP is proven infeasible at the root; the feasible transformed enzyme "+how+" (the modern analogue of 'ran for hours')")
	return t
}

// ilpStop names how a branch and bound ended: its status, or for a
// truncated search the cause Result.Stop records, "deadline" for the
// wall-clock guard and "node budget" for the node count.
func ilpStop(res *ilp.Result) string {
	switch {
	case res.Status != ilp.NodeLimit:
	case errors.Is(res.Stop, budget.ErrDeadline):
		return "deadline"
	case errors.Is(res.Stop, budget.ErrExhausted):
		return "node budget"
	}
	return res.Status.String()
}

// Regen reproduces the §4.3 regeneration comparison.
func Regen() *Table {
	c := cfg()
	t := &Table{
		ID:     "E9/regen",
		Title:  "Regenerations without volume management vs with DAGSolve (§4.3)",
		Header: []string{"assay", "naive regens (paper)", "with DAGSolve plan"},
	}
	glucosePlan, err := core.DAGSolve(assays.GlucoseDAG(), c, nil)
	if err != nil {
		panic(err)
	}
	managed, err := core.Manage(assays.EnzymeDAG(4), c, core.ManageOptions{SkipLP: true})
	if err != nil {
		panic(err)
	}
	rows := []struct {
		name    string
		g       *dag.Graph
		paper   string
		planned *core.Plan
	}{
		{"Glucose", assays.GlucoseDAG(), "2", glucosePlan},
		{"Enzyme", assays.EnzymeDAG(4), "85", managed.Plan},
		{"Enzyme10", assays.EnzymeDAG(10), "1313", nil},
	}
	for _, r := range rows {
		naive := regen.Execute(r.g, c, regen.ExecOptions{})
		withPlan := "-"
		if r.planned != nil {
			withPlan = fmt.Sprintf("%d", regen.CountPlanned(r.planned).Regenerations)
		}
		t.Rows = append(t.Rows, []string{
			r.name,
			fmt.Sprintf("%d (%s)", naive.Triggers, r.paper),
			withPlan,
		})
	}
	t.Notes = append(t.Notes,
		"naive model documented in package regen; absolute counts differ from BioStream's unspecified model by a small factor, the growth shape matches")
	return t
}

// All runs every experiment. full enables the long Enzyme10 LP solve.
func All(full bool, sweepN int) []*Table {
	if sweepN == 0 {
		sweepN = 5
	}
	return []*Table{
		Fig5(),
		Glucose(),
		Glycomics(),
		Enzyme(),
		Rounding(),
		Table2(full),
		ScalingTable(sweepN),
		LPAblation(),
		ILP(ILPBounds{}),
		Regen(),
		CascadeDepth(),
		ReplicaSweep(),
		RegenStrategy(),
		OutputSkewSweep(),
		Robustness(0),
		MarginSweep(),
		Durability(),
		Replan(0),
	}
}
