package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"aquavol/internal/faults"
	recovery "aquavol/internal/recover"
)

// ReplanStrategies are the repair configurations E13 compares: in-place
// retries only, retries + regeneration (the previous default), and
// retries + adaptive replanning with regeneration as the fallback.
func ReplanStrategies() []struct {
	Name string
	Opts recovery.Options
} {
	return []struct {
		Name string
		Opts recovery.Options
	}{
		{"retry-only", recovery.Options{DisableRegen: true}},
		{"regen", recovery.Options{}},
		{"replan", recovery.Options{EnableReplan: true}},
	}
}

// replanProfiles is E13's fault matrix. Harsh is excluded: its failure
// rate aborts runs for reasons no volume repair can address, which
// would only add noise to the reagent comparison.
func replanProfiles() []string { return []string{"mild", "moderate"} }

// ReplanCell is one assay × profile × strategy aggregate of E13.
type ReplanCell struct {
	Assay    string
	Profile  string
	Strategy string
	// Completed/Degraded/Aborted partition the seeded runs by status.
	Completed int
	Degraded  int
	Aborted   int
	// Repair totals across all seeds.
	Retries int
	Replans int
	Regens  int
	// ReagentNl is the total fluid drawn from input ports across all
	// seeds — the metric replanning exists to reduce.
	ReagentNl float64
	// ResumeChecks / ResumeIdentical report the crash-resume audit: each
	// replanned run is killed at a boundary inside its replanned region
	// and resumed from its journal; the resumed machine state must match
	// the uninterrupted run's fingerprint bit for bit.
	ResumeChecks    int
	ResumeIdentical int
}

// replanSeed fixes the per-run seed schedule (same as Robustness, so the
// two tables describe the same fault draws).
func replanSeed(s int) int64 { return int64(1000*s + 7) }

// ReplanOutcomes runs the E13 Monte-Carlo: every paper assay × fault
// profile × seed executes once per repair strategy, measuring completion
// and total input reagent. For the replan strategy, every run that
// actually replanned is additionally killed at its first replan boundary
// and resumed from a journal, verifying that resume reproduces the
// patched plan bit-identically.
func ReplanOutcomes(seeds int) ([]ReplanCell, error) {
	if seeds <= 0 {
		seeds = 5
	}
	cas, err := robustnessAssays()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "aquavol-replan")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var cells []ReplanCell
	for _, ca := range cas {
		for _, pname := range replanProfiles() {
			p, _ := faults.Preset(pname)
			for _, strat := range ReplanStrategies() {
				cell := ReplanCell{Assay: ca.name, Profile: pname, Strategy: strat.Name}
				for s := 0; s < seeds; s++ {
					seed := replanSeed(s)
					out, m, err := ca.runRecovered(p, seed, strat.Opts, nil)
					if err != nil {
						return nil, fmt.Errorf("%s/%s/%s seed %d: %w", ca.name, pname, strat.Name, seed, err)
					}
					switch out.Status {
					case recovery.Completed:
						cell.Completed++
					case recovery.CompletedDegraded:
						cell.Degraded++
					default:
						cell.Aborted++
					}
					cell.Retries += out.Retries
					cell.Replans += out.Replans
					cell.Regens += out.Regens
					cell.ReagentNl += out.Result.InputNl

					// Crash-resume audit at the first replan boundary.
					if out.Status != recovery.Aborted && len(out.ReplanBoundaries) > 0 {
						cell.ResumeChecks++
						want, err := machineFP(m)
						if err != nil {
							return nil, err
						}
						path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d.aqj", ca.name, pname, seed))
						run := chaosRun{ca: ca, p: p, seed: seed, opts: strat.Opts}
						ok, err := resumedNewest(run.strike(path, blow{kill: faults.CrashAt(out.ReplanBoundaries[0])}, want))
						if err != nil {
							return nil, fmt.Errorf("%s/%s seed %d: kill at replan boundary %d: %w",
								ca.name, pname, seed, out.ReplanBoundaries[0], err)
						}
						if ok {
							cell.ResumeIdentical++
						}
					}
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// Replan renders E13: adaptive replanning versus regeneration versus
// retry-only, by completion and total input reagent.
func Replan(seeds int) *Table {
	if seeds <= 0 {
		seeds = 5
	}
	cells, err := ReplanOutcomes(seeds)
	if err != nil {
		panic(err)
	}
	return replanTable(seeds, cells)
}

// replanTable renders E13's cells, each aggregating seeds runs.
func replanTable(seeds int, cells []ReplanCell) *Table {
	t := &Table{
		ID:    "E13/Replan",
		Title: fmt.Sprintf("adaptive replanning vs regeneration, %d seeds per cell", seeds),
		Header: []string{"assay", "profile", "strategy", "completed", "degraded", "aborted",
			"retries", "replans", "regens", "reagent", "replan resumes"},
	}
	for _, c := range cells {
		resumes := "-"
		if c.ResumeChecks > 0 {
			resumes = fmt.Sprintf("%d/%d identical", c.ResumeIdentical, c.ResumeChecks)
		}
		t.Rows = append(t.Rows, []string{
			c.Assay, c.Profile, c.Strategy,
			fmt.Sprintf("%d/%d", c.Completed, seeds),
			fmt.Sprintf("%d/%d", c.Degraded, seeds),
			fmt.Sprintf("%d/%d", c.Aborted, seeds),
			fmt.Sprintf("%d", c.Retries),
			fmt.Sprintf("%d", c.Replans),
			fmt.Sprintf("%d", c.Regens),
			fmtVol(c.ReagentNl),
			resumes,
		})
	}
	t.Notes = append(t.Notes,
		"reagent: total fluid drawn from input ports across all seeds — replanning shrinks the residual instead of re-brewing it",
		"replan resumes: each replanned run is killed at its first replan boundary and resumed; the resumed machine state must equal the uninterrupted run's fingerprint",
		"same seed schedule as E10, so both tables describe identical fault draws")
	return t
}
