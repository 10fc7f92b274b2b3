package bench

import (
	"reflect"
	"testing"

	"aquavol/internal/faults"
	"aquavol/internal/golden"
	recovery "aquavol/internal/recover"
)

// Acceptance: under the moderate fault preset with recovery enabled,
// every paper assay reaches completed or completed-degraded — never
// aborted.
func TestModerateProfileAssaysSurvive(t *testing.T) {
	cas, err := robustnessAssays()
	if err != nil {
		t.Fatal(err)
	}
	prof, ok := faults.Preset("moderate")
	if !ok {
		t.Fatal("moderate preset missing")
	}
	for _, ca := range cas {
		for _, seed := range []int64{7, 1007} {
			out, _, err := ca.runRecovered(prof, seed, recovery.Options{}, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", ca.name, seed, err)
			}
			if out.Status == recovery.Aborted {
				t.Errorf("%s seed %d aborted: %v", ca.name, seed, out.Err)
			}
		}
	}
}

// Acceptance: with a deterministic loss-only fault profile and recovery
// off, completion is monotonically non-decreasing in the safety margin,
// and a 20% margin completes outright.
func TestMarginCompletionMonotone(t *testing.T) {
	outs, err := MarginSweepOutcomes()
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(MarginEpsilons) {
		t.Fatalf("got %d outcomes, want %d", len(outs), len(MarginEpsilons))
	}
	prevCompleted := false
	for _, o := range outs {
		completed := o.Status == recovery.Completed
		if prevCompleted && !completed {
			t.Errorf("completion regressed at margin %.0f%%", 100*o.Margin)
		}
		prevCompleted = prevCompleted || completed
		if completed && o.RanOut != 0 {
			t.Errorf("margin %.0f%%: completed with %d ran-out events", 100*o.Margin, o.RanOut)
		}
	}
	if outs[0].Status == recovery.Completed {
		t.Error("zero margin should not absorb the loss profile (sweep would be vacuous)")
	}
	if last := outs[len(outs)-1]; last.Status != recovery.Completed {
		t.Errorf("20%% margin must absorb the loss profile, got %v", last.Status)
	}
}

// The sweep is deterministic: two computations agree exactly.
func TestMarginSweepDeterministic(t *testing.T) {
	a, err := MarginSweepOutcomes()
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarginSweepOutcomes()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("margin sweep differs between runs")
	}
}

// The E10 table at volbench's default five seeds per cell is pinned:
// every completion count, repair average, fault loss and wet time.
func TestRobustnessGolden(t *testing.T) {
	const seeds = 5
	cells, err := RobustnessOutcomes(seeds)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/golden/robustness.golden", robustnessTable(seeds, cells).String())
}

// The E11 table is pinned: each margin's status, ran-out count and
// fault loss.
func TestMarginSweepGolden(t *testing.T) {
	outs, err := MarginSweepOutcomes()
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/golden/margin-sweep.golden", marginSweepTable(outs).String())
}

// Table smoke: the robustness table has one row per assay × profile.
func TestRobustnessTableShape(t *testing.T) {
	tab := Robustness(1)
	want := 3 * len(faults.Presets())
	if len(tab.Rows) != want {
		t.Errorf("rows = %d, want %d", len(tab.Rows), want)
	}
}
