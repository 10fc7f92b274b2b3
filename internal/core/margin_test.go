package core_test

import (
	"math"
	"testing"

	"aquavol/internal/assays"
	"aquavol/internal/core"
	"aquavol/internal/dag"
)

// overProvision checks the margin guarantee on a plan: every node's net
// production covers (1+eps) times what its consumers draw, and nothing
// exceeds hardware capacity.
func overProvision(t *testing.T, plan *core.Plan, c core.Config, eps float64) {
	t.Helper()
	g := plan.Graph
	for _, n := range g.Nodes() {
		if n == nil || n.Kind == dag.Excess {
			continue
		}
		id := n.ID()
		if plan.NodeVolume[id] > c.MaxCapacity+1e-6 {
			t.Errorf("node %s volume %.6g exceeds capacity %.4g", n.Name, plan.NodeVolume[id], c.MaxCapacity)
		}
		var draws float64
		leaf := true
		for _, e := range n.Out() {
			if e.To.Kind == dag.Excess {
				continue
			}
			draws += plan.EdgeVolume[e.ID()]
			leaf = false
		}
		if leaf || draws == 0 {
			continue
		}
		if plan.Production[id]+1e-6 < (1+eps)*draws {
			t.Errorf("node %s: production %.6g < (1+%.2g)×draws %.6g",
				n.Name, plan.Production[id], eps, draws)
		}
	}
}

// A safety margin over-provisions every interior fluid without breaking
// feasibility or capacity on DAGSolve plans.
func TestMarginOverProvisionsDAGSolve(t *testing.T) {
	for _, eps := range []float64{0.05, 0.1, 0.2} {
		c := cfg()
		c.SafetyMargin = eps
		plan, err := core.DAGSolve(assays.GlucoseDAG(), c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Feasible() {
			t.Fatalf("eps=%g: glucose with margin must stay feasible: %v", eps, plan.Underflows)
		}
		overProvision(t, plan, c, eps)
	}
}

// The same guarantee holds for the LP formulation (margin scales the
// nondeficit constraints).
func TestMarginOverProvisionsLP(t *testing.T) {
	c := cfg()
	c.SafetyMargin = 0.1
	plan, err := core.SolveLP(assays.GlucoseDAG(), c, core.FormulateOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible() {
		t.Fatalf("LP glucose with margin must stay feasible: %v", plan.Underflows)
	}
	overProvision(t, plan, c, 0.1)
}

// Margins must scale every in-edge of a node uniformly, preserving mix
// ratios exactly.
func TestMarginPreservesMixRatios(t *testing.T) {
	base, err := core.DAGSolve(assays.GlucoseDAG(), cfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg()
	c.SafetyMargin = 0.2
	withM, err := core.DAGSolve(assays.GlucoseDAG(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range base.Graph.Nodes() {
		if n == nil || n.Kind != dag.Mix || len(n.In()) < 2 {
			continue
		}
		in := n.In()
		for i := 1; i < len(in); i++ {
			r0 := base.EdgeVolume[in[i].ID()] / base.EdgeVolume[in[0].ID()]
			r1 := withM.EdgeVolume[in[i].ID()] / withM.EdgeVolume[in[0].ID()]
			if !approx(r0, r1) {
				t.Errorf("mix %s: ratio changed %.6g → %.6g under margin", n.Name, r0, r1)
			}
		}
	}
}

// Margin-aware Manage still finds feasible plans for the paper assays.
func TestMarginThroughManage(t *testing.T) {
	c := cfg()
	c.SafetyMargin = 0.1
	for _, tc := range []struct {
		name string
		g    *dag.Graph
	}{
		{"glucose", assays.GlucoseDAG()},
		{"enzyme", assays.EnzymeDAG(2)},
	} {
		res, err := core.Manage(tc.g, c, core.ManageOptions{})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !res.Plan.Feasible() {
			t.Errorf("%s: infeasible under 10%% margin", tc.name)
		}
	}
}

// Validate rejects out-of-range margins.
func TestMarginValidation(t *testing.T) {
	for _, eps := range []float64{-0.1, 1, 1.5, math.NaN()} {
		c := cfg()
		c.SafetyMargin = eps
		if err := c.Validate(); err == nil {
			t.Errorf("SafetyMargin=%v must fail validation", eps)
		}
	}
	c := cfg()
	c.SafetyMargin = 0.5
	if err := c.Validate(); err != nil {
		t.Errorf("SafetyMargin=0.5 must validate: %v", err)
	}
	c.SafetyMargin = -0.5
	if _, err := core.DAGSolve(assays.GlucoseDAG(), c, nil); err == nil {
		t.Error("DAGSolve with SafetyMargin -0.5 must fail")
	}
}
