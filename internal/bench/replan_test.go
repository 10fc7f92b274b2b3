package bench

import (
	"testing"

	"aquavol/internal/golden"
)

// TestReplanBeatsRegenOnModerate is E13's acceptance criterion: on the
// moderate fault profile, adaptive replanning completes at least as many
// runs as regeneration-only repair while consuming strictly less total
// input reagent, and every replanned run crash-resumes bit-identically
// from a boundary inside its replanned region.
func TestReplanBeatsRegenOnModerate(t *testing.T) {
	const seeds = 3
	cells, err := ReplanOutcomes(seeds)
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ assay, strategy string }
	moderate := map[key]ReplanCell{}
	totalReplans := 0
	for _, c := range cells {
		if c.ResumeIdentical != c.ResumeChecks {
			t.Errorf("%s/%s/%s: %d of %d replan crash-resumes diverged",
				c.Assay, c.Profile, c.Strategy, c.ResumeChecks-c.ResumeIdentical, c.ResumeChecks)
		}
		if c.Strategy == "replan" {
			totalReplans += c.Replans
		}
		if c.Profile == "moderate" {
			moderate[key{c.Assay, c.Strategy}] = c
		}
	}
	if totalReplans == 0 {
		t.Fatal("no replans fired anywhere: the strategy under test never ran")
	}
	for _, assay := range []string{"glucose", "glycomics", "enzyme"} {
		regen, ok := moderate[key{assay, "regen"}]
		if !ok {
			t.Fatalf("%s: no regen cell", assay)
		}
		replan, ok := moderate[key{assay, "replan"}]
		if !ok {
			t.Fatalf("%s: no replan cell", assay)
		}
		if got, want := seeds-replan.Aborted, seeds-regen.Aborted; got < want {
			t.Errorf("%s: replan finished %d runs, regen %d", assay, got, want)
		}
		if replan.Completed < regen.Completed {
			t.Errorf("%s: replan completed cleanly %d times, regen %d",
				assay, replan.Completed, regen.Completed)
		}
		if replan.Replans > 0 && replan.ReagentNl >= regen.ReagentNl {
			t.Errorf("%s: replan consumed %.2f nl reagent, regen %.2f — replanning should be strictly cheaper",
				assay, replan.ReagentNl, regen.ReagentNl)
		}
	}
	golden.Check(t, "testdata/golden/replan-3seeds.golden", replanTable(seeds, cells).String())
}
