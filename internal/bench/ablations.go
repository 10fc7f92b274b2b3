package bench

import (
	"fmt"
	"math"
	"sort"

	"aquavol/internal/assays"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/lp"
	"aquavol/internal/regen"
)

// Ablation experiments for the design choices DESIGN.md calls out: how
// deep to cascade, how many replicas to make, which regeneration repair
// strategy the baseline would use, and how the LP's output-skew bound
// trades fairness against total production.

// CascadeDepth sweeps the cascade depth for the enzyme assay's 1:999
// dilutions. Depth 3 gives integral 1:9 stages (the paper's choice);
// depth 2 gives non-integral 1:30.6 stages that also clear the least
// count but with less headroom per stage and fewer extra uses of the
// diluent.
func CascadeDepth() *Table {
	c := cfg()
	t := &Table{
		ID:     "A1/cascade-depth",
		Title:  "Cascade depth for the 1:999 dilutions (enzyme assay, before replication)",
		Header: []string{"levels", "stage ratio", "diluent Vnorm", "min dispense", "extra wet nodes", "feasible"},
	}
	base := assays.EnzymeDAG(4)
	baseNodes := core.WetNodeCount(base)
	for levels := 2; levels <= 5; levels++ {
		g := assays.EnzymeDAG(4)
		for _, name := range []string{"inh_dil4", "enz_dil4", "sub_dil4"} {
			if err := g.Cascade(g.NodeByName(name), levels); err != nil {
				panic(err)
			}
		}
		plan, err := core.DAGSolve(g, c, nil)
		if err != nil {
			panic(err)
		}
		dil := g.NodeByName("diluent")
		_, min := plan.MinDispense()
		stage := math.Pow(1000, 1.0/float64(levels)) - 1
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", levels),
			fmt.Sprintf("1:%.3g", stage),
			fmt.Sprintf("%.3g", plan.NodeVnorm[dil.ID()]),
			fmtVol(min),
			fmt.Sprintf("%d", core.WetNodeCount(g)-baseNodes),
			fmt.Sprintf("%v", plan.Feasible()),
		})
	}
	t.Notes = append(t.Notes,
		"deeper cascades raise the minimum stage dispense but add mixes and diluent uses; none fixes the enzyme assay alone (replication is also needed, or cascading the 1:99s too)")
	return t
}

// ReplicaSweep sweeps the diluent replica count on the cascaded enzyme
// assay: 2 replicas already clear the least count; 3 (the paper's choice)
// adds margin; beyond that the returns diminish as other nodes become the
// bottleneck.
func ReplicaSweep() *Table {
	c := cfg()
	t := &Table{
		ID:     "A2/replica-sweep",
		Title:  "Diluent replica count (enzyme assay, after 1:999 cascading)",
		Header: []string{"replicas", "max Vnorm", "min dispense", "feasible"},
	}
	for copies := 1; copies <= 5; copies++ {
		g := assays.EnzymeDAG(4)
		for _, name := range []string{"inh_dil4", "enz_dil4", "sub_dil4"} {
			if err := g.Cascade(g.NodeByName(name), 3); err != nil {
				panic(err)
			}
		}
		if copies > 1 {
			vn, err := core.ComputeVnorms(g)
			if err != nil {
				panic(err)
			}
			dil := g.NodeByName("diluent")
			if _, err := g.Replicate(dil, copies, core.BalancedAssign(dil, vn, copies)); err != nil {
				panic(err)
			}
		}
		plan, err := core.DAGSolve(g, c, nil)
		if err != nil {
			panic(err)
		}
		_, maxV := maxVnorm(plan)
		_, min := plan.MinDispense()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", copies),
			fmt.Sprintf("%.3g", maxV),
			fmtVol(min),
			fmt.Sprintf("%v", plan.Feasible()),
		})
	}
	t.Notes = append(t.Notes,
		"the paper used 3 replicas (one per reagent group, min 196 pl); 2 already suffice at ~131 pl; past the point where the diluent stops being the Vnorm bottleneck, more replicas do not help")
	return t
}

// RegenStrategy compares lazy and eager-slice regeneration repair on the
// unmanaged assays: the fluidic-time overhead either way dwarfs the
// microseconds of proactive planning, which is the paper's core argument.
func RegenStrategy() *Table {
	c := cfg()
	t := &Table{
		ID:    "A3/regen-strategy",
		Title: "Reactive regeneration overhead by repair strategy (no volume management)",
		Header: []string{"assay", "strategy", "triggers", "re-executed ops",
			"overhead vs baseline ops", "extra fluidic time (10 s/op)"},
	}
	for _, a := range []struct {
		name string
		g    *dag.Graph
	}{
		{"Glucose", assays.GlucoseDAG()},
		{"Enzyme", assays.EnzymeDAG(4)},
		{"Enzyme10", assays.EnzymeDAG(10)},
	} {
		for _, s := range []regen.Strategy{regen.Lazy, regen.EagerSlice} {
			rep := regen.Execute(a.g, c, regen.ExecOptions{Strategy: s})
			t.Rows = append(t.Rows, []string{
				a.name, s.String(),
				fmt.Sprintf("%d", rep.Triggers),
				fmt.Sprintf("%d", rep.ReExecutedOps),
				fmt.Sprintf("%.0f%%", 100*rep.OverheadFraction),
				fmt.Sprintf("%.0f s", rep.ExtraFluidicSeconds),
			})
		}
	}
	t.Notes = append(t.Notes,
		"DAGSolve plans regenerate zero times and plan in micro-to-milliseconds on the electronic side (Table 2); regeneration pays in fluidic minutes-to-hours")
	return t
}

// OutputSkewSweep varies the LP's optional output-to-output bound on the
// glucose assay: tight bounds approach DAGSolve's equal outputs, loose
// ones let the objective skew production toward cheap outputs (§3.2's
// motivation for the constraint).
func OutputSkewSweep() *Table {
	t := &Table{
		ID:     "A4/output-skew",
		Title:  "LP output-to-output skew bound vs production balance (glucose)",
		Header: []string{"skew bound", "total output (nl)", "min output", "max output", "max/min"},
	}
	g := assays.GlucoseDAG()
	for _, skew := range []float64{0.01, 0.10, 0.25, 0.50, 0} {
		c := cfg()
		c.OutputSkew = skew
		f, err := core.Formulate(g, c, core.FormulateOptions{}, nil)
		if err != nil {
			panic(err)
		}
		plan, err := f.Solve(lp.Options{})
		if err != nil {
			panic(err)
		}
		outs := plan.OutputVolumes()
		names := make([]string, 0, len(outs))
		for name := range outs {
			names = append(names, name)
		}
		sort.Strings(names)
		total, min, max := 0.0, 1e18, 0.0
		// Summing in sorted-name order keeps the float total bit-identical
		// across runs; map order would perturb its low bits.
		for _, name := range names {
			v := outs[name]
			total += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		label := fmt.Sprintf("±%.0f%%", 100*skew)
		if skew == 0 {
			label = "disabled"
		}
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%.1f", total),
			fmt.Sprintf("%.1f", min),
			fmt.Sprintf("%.1f", max),
			fmt.Sprintf("%.2f", max/min),
		})
	}
	t.Notes = append(t.Notes,
		"maximizing total output alone skews production toward the outputs that consume the least of the bottleneck reagent; the paper's ±10% band keeps outputs comparable at a small total-production cost")
	return t
}

func maxVnorm(p *core.Plan) (int, float64) {
	best, bestV := -1, 0.0
	for id, v := range p.NodeVnorm {
		if v > bestV {
			best, bestV = id, v
		}
	}
	return best, bestV
}
