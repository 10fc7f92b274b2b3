package regen_test

import (
	"testing"

	"aquavol/internal/assays"
	"aquavol/internal/dag"
	"aquavol/internal/regen"
)

// Lazy repair re-runs exactly one op per trigger, and its trigger
// counts are the naive regeneration counts Table 2 and E9 report.
func TestExecuteLazyCounts(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *dag.Graph
		want int
	}{
		{"glucose", assays.GlucoseDAG(), 5},
		{"enzyme", assays.EnzymeDAG(4), 142},
		{"enzyme10", assays.EnzymeDAG(10), 2076},
	} {
		rep := regen.Execute(c.g, cfg(), regen.ExecOptions{Strategy: regen.Lazy})
		if !rep.Completed || rep.Truncated {
			t.Fatalf("%s: completed=%v truncated=%v", c.name, rep.Completed, rep.Truncated)
		}
		if rep.Triggers != c.want || rep.ReExecutedOps != rep.Triggers {
			t.Errorf("%s: %d triggers, %d re-executed ops; want %d of each",
				c.name, rep.Triggers, rep.ReExecutedOps, c.want)
		}
	}
}

func TestExecuteEagerCostsMorePerTrigger(t *testing.T) {
	g := assays.EnzymeDAG(4)
	lazy := regen.Execute(g, cfg(), regen.ExecOptions{Strategy: regen.Lazy})
	eager := regen.Execute(g, cfg(), regen.ExecOptions{Strategy: regen.EagerSlice})
	if !lazy.Completed || !eager.Completed {
		t.Fatal("execution aborted")
	}
	// Eager repair re-runs whole slices: fewer or equal triggers, but
	// strictly more re-executed operations per trigger on this assay.
	if eager.Triggers > lazy.Triggers {
		t.Errorf("eager triggers %d > lazy %d; whole-slice repair should not trigger more often",
			eager.Triggers, lazy.Triggers)
	}
	lazyPer := float64(lazy.ReExecutedOps) / float64(lazy.Triggers)
	eagerPer := float64(eager.ReExecutedOps) / float64(eager.Triggers)
	if eagerPer <= lazyPer {
		t.Errorf("ops/trigger: eager %.2f <= lazy %.2f; slices should cost more each",
			eagerPer, lazyPer)
	}
	t.Logf("lazy: %d triggers, %d ops; eager: %d triggers, %d ops",
		lazy.Triggers, lazy.ReExecutedOps, eager.Triggers, eager.ReExecutedOps)
}

func TestExecuteOverheadMetrics(t *testing.T) {
	g := assays.EnzymeDAG(4)
	rep := regen.Execute(g, cfg(), regen.ExecOptions{OpSeconds: 10})
	if rep.BaselineOps != 12+64*3 {
		t.Fatalf("baseline ops = %d, want 204", rep.BaselineOps)
	}
	if rep.OverheadFraction <= 0.3 {
		t.Errorf("overhead fraction = %v; the unmanaged enzyme assay should lose a large fraction to regeneration", rep.OverheadFraction)
	}
	if rep.ExtraFluidicSeconds != float64(rep.ReExecutedOps)*10 {
		t.Error("fluidic overhead not OpSeconds × ops")
	}
}

func TestExecuteGlucoseSmallOverhead(t *testing.T) {
	g := assays.GlucoseDAG()
	rep := regen.Execute(g, cfg(), regen.ExecOptions{})
	if !rep.Completed {
		t.Fatal("aborted")
	}
	if rep.Triggers > 10 {
		t.Errorf("glucose triggers = %d, want a handful", rep.Triggers)
	}
}

func TestExecuteAbortGuard(t *testing.T) {
	g := assays.EnzymeDAG(4)
	rep := regen.Execute(g, cfg(), regen.ExecOptions{MaxRegens: 3})
	if rep.Completed {
		t.Fatal("run should abort with a 3-regeneration budget")
	}
}
