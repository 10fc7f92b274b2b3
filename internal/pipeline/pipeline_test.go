package pipeline_test

import (
	"testing"

	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/budget"
	"aquavol/internal/core"
	"aquavol/internal/lang"
	"aquavol/internal/pipeline"
)

func build(t *testing.T, src string, opts pipeline.Options) *pipeline.Result {
	t.Helper()
	ep, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Build(ep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Findings.HasErrors() {
		t.Fatalf("verifier rejected the listing: %v", res.Findings)
	}
	return res
}

// Planning and certification happen once, in Build: handing a run its
// machine charges the meter nothing, so a budget trips where it would
// without the pipeline in between.
func TestMachineChargesNoPlanning(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"glucose", assays.GlucoseSource},
		{"glycomics", assays.GlycomicsSource},
	} {
		meter := budget.New(0)
		cfg := core.DefaultConfig()
		cfg.Budget = meter
		res := build(t, tc.src, pipeline.Options{Config: cfg})
		planned := meter.Used()
		if planned == 0 {
			t.Fatalf("%s: Build charged nothing", tc.name)
		}
		for i := 0; i < 2; i++ {
			if _, err := res.Machine(aquacore.Config{}); err != nil {
				t.Fatal(err)
			}
		}
		if got := meter.Used(); got != planned {
			t.Errorf("%s: two Machine calls charged %d units after Build's %d", tc.name, got-planned, planned)
		}
	}
}

// A run's machine executes, and re-solves residual replans, under the
// compile's volume parameters, safety margin included, and a replan
// charges nothing to the compile's meter.
func TestMachineKeepsCompileConfig(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SafetyMargin = 0.1
	cfg.Budget = budget.New(0)
	res := build(t, assays.GlucoseSource, pipeline.Options{Config: cfg})
	m, err := res.Machine(aquacore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := m.VolumeConfig()
	if got.SafetyMargin != cfg.SafetyMargin || got.MaxCapacity != cfg.MaxCapacity ||
		got.LeastCount != cfg.LeastCount || got.OutputSkew != cfg.OutputSkew {
		t.Errorf("machine volume config %+v, want the compile's %+v", got, cfg)
	}
	if got.Budget != nil {
		t.Error("the machine's volume config carries the compile's meter: replans would charge it")
	}
}

// A staged assay's runs start from the compile-time partition plans and
// solve the rest in their own copy: a finished run leaves the compile
// and the next run's source untouched.
func TestStagedRunsAreIndependent(t *testing.T) {
	res := build(t, assays.GlycomicsSource, pipeline.Options{Config: core.DefaultConfig()})
	solved := func(plans []*core.Plan) int {
		n := 0
		for _, p := range plans {
			if p != nil {
				n++
			}
		}
		return n
	}
	if got := solved(res.Staged.Plans); got != len(res.Static) || got == 0 {
		t.Fatalf("compile solved %d parts, static parts %v", got, res.Static)
	}
	m, err := res.Machine(aquacore.Config{SeparationYield: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(res.Prog); err != nil {
		t.Fatal(err)
	}
	ran := m.Source().(*aquacore.StagedSource)
	if solved(ran.Plans()) <= len(res.Static) {
		t.Fatal("the run solved no partition at run time")
	}
	if got := solved(res.Staged.Plans); got != len(res.Static) {
		t.Errorf("a run changed the compile: %d parts solved, want %d", got, len(res.Static))
	}
	next, err := res.Source()
	if err != nil {
		t.Fatal(err)
	}
	if got := solved(next.(*aquacore.StagedSource).Plans()); got != len(res.Static) {
		t.Errorf("the next run's source starts with %d parts solved, want %d", got, len(res.Static))
	}
}

// The certificate hash pins a certified static plan; skipping
// certification leaves nothing to pin.
func TestCertHash(t *testing.T) {
	cfg := core.DefaultConfig()
	if res := build(t, assays.GlucoseSource, pipeline.Options{Config: cfg}); res.CertHash == 0 {
		t.Error("certified static plan has no certificate hash")
	}
	if res := build(t, assays.GlucoseSource, pipeline.Options{Config: cfg, NoCertify: true}); res.CertHash != 0 {
		t.Errorf("uncertified plan has certificate hash %08x", res.CertHash)
	}
	if res := build(t, assays.GlycomicsSource, pipeline.Options{Config: cfg}); res.CertHash != 0 {
		t.Errorf("staged assay has certificate hash %08x", res.CertHash)
	}
}
