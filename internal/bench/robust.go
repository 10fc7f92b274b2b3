package bench

import (
	"fmt"

	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/budget"
	"aquavol/internal/core"
	"aquavol/internal/faults"
	"aquavol/internal/lang"
	"aquavol/internal/pipeline"
	recovery "aquavol/internal/recover"
)

// compiledAssay is a paper assay compiled once through the shared
// pipeline, as fluidvm compiles it; every run gets a fresh machine.
type compiledAssay struct {
	name   string
	margin float64
	*pipeline.Result
}

// compileForRun compiles src with safety margin margin, refusing a
// listing the verifier rejects.
func compileForRun(name, src string, margin float64) (*compiledAssay, error) {
	ep, err := lang.Compile(src)
	if err != nil {
		return nil, err
	}
	c := core.DefaultConfig()
	c.SafetyMargin = margin
	res, err := pipeline.Build(ep, pipeline.Options{Config: c})
	if err != nil {
		return nil, err
	}
	if res.Findings.HasErrors() {
		return nil, res.Findings
	}
	return &compiledAssay{name: name, margin: margin, Result: res}, nil
}

// runRecovered executes one seeded run under the recovery runtime, its
// machine bounded by meter (nil for none), returning the machine too so
// callers can fingerprint its final state.
func (ca *compiledAssay) runRecovered(p faults.Profile, seed int64, opts recovery.Options, meter *budget.Meter) (*recovery.Outcome, *aquacore.Machine, error) {
	x := ca.Executable(ca.name)
	m, err := x.Fresh(p, seed, aquacore.Config{Budget: meter})
	if err != nil {
		return nil, nil, err
	}
	return recovery.Run(m, x.Prog, x.Compiled, opts), m, nil
}

// robustnessAssays compiles the three paper assays for fault sweeps.
func robustnessAssays() ([]*compiledAssay, error) {
	specs := []struct{ name, src string }{
		{"glucose", assays.GlucoseSource},
		{"glycomics", assays.GlycomicsSource},
		{"enzyme", assays.EnzymeSource(2)},
	}
	var out []*compiledAssay
	for _, s := range specs {
		ca, err := compileForRun(s.name, s.src, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		out = append(out, ca)
	}
	return out, nil
}

// RobustnessCell is one (assay, profile) cell of the E10 sweep, summed
// over its seeds.
type RobustnessCell struct {
	Assay, Profile               string
	Completed, Degraded, Aborted int
	Retries, Regens              int
	// FaultLoss and WetSeconds are summed in seed order.
	FaultLoss, WetSeconds float64
}

// RobustnessOutcomes is the Monte-Carlo fault sweep: every paper assay
// × every fault preset × seeds runs under the recovery runtime.
func RobustnessOutcomes(seeds int) ([]RobustnessCell, error) {
	cas, err := robustnessAssays()
	if err != nil {
		return nil, err
	}
	var cells []RobustnessCell
	for _, ca := range cas {
		for _, pname := range faults.Presets() {
			p, _ := faults.Preset(pname)
			c := RobustnessCell{Assay: ca.name, Profile: pname}
			for s := 0; s < seeds; s++ {
				out, _, err := ca.runRecovered(p, int64(1000*s+7), recovery.Options{}, nil)
				if err != nil {
					return nil, err
				}
				switch out.Status {
				case recovery.Completed:
					c.Completed++
				case recovery.CompletedDegraded:
					c.Degraded++
				default:
					c.Aborted++
				}
				c.Retries += out.Retries
				c.Regens += out.Regens
				c.FaultLoss += out.Result.FaultLoss()
				c.WetSeconds += out.Result.WetSeconds
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// Robustness renders the fault sweep (E10): how often execution
// completes (cleanly or degraded), how much repair it took, and what
// the faults cost in fluid and time.
func Robustness(seeds int) *Table {
	if seeds <= 0 {
		seeds = 5
	}
	cells, err := RobustnessOutcomes(seeds)
	if err != nil {
		panic(err)
	}
	return robustnessTable(seeds, cells)
}

// robustnessTable renders E10's cells, averaged over seeds.
func robustnessTable(seeds int, cells []RobustnessCell) *Table {
	t := &Table{
		ID:    "E10/Robust",
		Title: fmt.Sprintf("fault injection + recovery, %d seeds per cell", seeds),
		Header: []string{"assay", "profile", "completed", "degraded", "aborted",
			"retries", "regens", "fault loss", "wet time"},
	}
	n := float64(seeds)
	for _, c := range cells {
		t.Rows = append(t.Rows, []string{
			c.Assay, c.Profile,
			fmt.Sprintf("%d/%d", c.Completed, seeds),
			fmt.Sprintf("%d/%d", c.Degraded, seeds),
			fmt.Sprintf("%d/%d", c.Aborted, seeds),
			fmt.Sprintf("%.1f", float64(c.Retries)/n),
			fmt.Sprintf("%.1f", float64(c.Regens)/n),
			fmtVol(c.FaultLoss / n),
			fmt.Sprintf("%.0f s", c.WetSeconds/n),
		})
	}
	t.Notes = append(t.Notes,
		"recovery: bounded in-place retries + backward-slice regeneration (internal/recover)",
		"reproducible: each cell is a fixed seed sequence; rerunning the table is bit-identical")
	return t
}

// marginSweepProfile is the deterministic loss-only profile MarginSweep
// uses: dead volume and evaporation deplete fluids, but nothing is random
// (no jitter, no failures), so each margin either always or never
// completes.
func marginSweepProfile() faults.Profile {
	return faults.Profile{DeadVolume: 0.15, EvapRate: 2e-5}
}

// MarginEpsilons is the sweep range of the safety-margin experiment.
var MarginEpsilons = []float64{0, 0.05, 0.1, 0.2}

// MarginOutcome reports one margin-sweep cell.
type MarginOutcome struct {
	Margin    float64
	Status    recovery.Status
	RanOut    int
	FaultLoss float64
}

// MarginSweepOutcomes runs the glucose assay under the deterministic
// loss-only profile with recovery DISABLED at each safety margin: the
// margin alone must absorb the losses. Completion is monotonically
// non-decreasing in the margin.
func MarginSweepOutcomes() ([]MarginOutcome, error) {
	var out []MarginOutcome
	for _, eps := range MarginEpsilons {
		ca, err := compileForRun("glucose", assays.GlucoseSource, eps)
		if err != nil {
			return nil, err
		}
		o, _, err := ca.runRecovered(marginSweepProfile(), 0,
			recovery.Options{DisableRetry: true, DisableRegen: true}, nil)
		if err != nil {
			return nil, err
		}
		ranOut := 0
		for _, e := range o.Result.Events {
			if e.Kind == aquacore.EventRanOut {
				ranOut++
			}
		}
		out = append(out, MarginOutcome{
			Margin: eps, Status: o.Status, RanOut: ranOut,
			FaultLoss: o.Result.FaultLoss(),
		})
	}
	return out, nil
}

// MarginSweep renders MarginSweepOutcomes as a table (E11).
func MarginSweep() *Table {
	outs, err := MarginSweepOutcomes()
	if err != nil {
		panic(err)
	}
	return marginSweepTable(outs)
}

// marginSweepTable renders E11's cells.
func marginSweepTable(outs []MarginOutcome) *Table {
	t := &Table{
		ID:     "E11/Margin",
		Title:  "safety-margin sweep, glucose, deterministic loss-only faults, recovery off",
		Header: []string{"margin", "status", "ran-out events", "fault loss"},
	}
	for _, o := range outs {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", 100*o.Margin),
			o.Status.String(),
			fmt.Sprintf("%d", o.RanOut),
			fmtVol(o.FaultLoss),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("profile %s: losses are deterministic, so completion depends only on the margin", marginSweepProfile()),
		"over-provisioning by (1+margin) absorbs dead-volume and evaporation losses without replanning")
	return t
}
