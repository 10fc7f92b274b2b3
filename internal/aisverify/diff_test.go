package aisverify_test

import (
	"testing"

	"aquavol/internal/ais"
	"aquavol/internal/aisverify"
	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/codegen"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/diag"
	"aquavol/internal/lang"
	"aquavol/internal/pipeline"
)

// cleanCases are the example assays the differential contract compiles.
var cleanCases = []struct {
	name string
	src  string
}{
	{"glucose", assays.GlucoseSource},
	{"glycomics", assays.GlycomicsSource},
	{"enzyme2", assays.EnzymeSource(2)},
	{"enzyme4", assays.EnzymeSource(4)},
}

// compiledCase is a compiled example assay: its listing, the verifier
// options its plan implies, and what a machine needs to run it.
type compiledCase struct {
	prog   *ais.Program
	opts   aisverify.Options
	graph  *dag.Graph
	source aquacore.VolumeSource
	dry    map[string]float64
}

// compileCase plans src with DAGSolve (staged partitions when volumes are
// statically unknown) and generates its listing.
func compileCase(t *testing.T, src string) compiledCase {
	t.Helper()
	ep, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	c := compiledCase{graph: ep.Graph, dry: codegen.DryInit(ep)}
	var plan *core.Plan
	usedLP := true
	if ep.Graph.NeedsPartition() {
		sp, err := core.NewStagedPlan(ep.Graph, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c.source, err = aquacore.NewStagedSource(sp, nil); err != nil {
			t.Fatal(err)
		}
	} else {
		res, err := core.Manage(ep.Graph, cfg, core.ManageOptions{SkipLP: true})
		if err != nil {
			t.Fatal(err)
		}
		c.graph, plan, usedLP = res.Graph, res.Plan, res.UsedLP
		c.source = aquacore.PlanSource{Plan: plan}
	}

	cg, err := codegen.Generate(ep, c.graph, codegen.Config{NoForwarding: usedLP})
	if err != nil {
		t.Fatal(err)
	}
	var vols ais.VolumeTable
	if plan != nil {
		if vols, err = cg.VolumeTable(aquacore.PlanSource{Plan: plan}.EdgeVolume); err != nil {
			t.Fatal(err)
		}
	}
	c.prog, c.opts = cg.Prog, pipeline.VerifyOptions(ep, plan, vols)
	return c
}

// The differential contract of the verifier, direction one: a program the
// verifier passes must simulate event-free. Every example assay compiles,
// verifies with zero findings, and runs on the machine with zero volume
// events.
func TestVerifierCleanProgramsSimulateClean(t *testing.T) {
	for _, tc := range cleanCases {
		t.Run(tc.name, func(t *testing.T) {
			c := compileCase(t, tc.src)
			if findings := aisverify.Verify(c.prog, c.opts); len(findings) != 0 {
				t.Fatalf("verifier findings on %s:\n%v", tc.name, findings)
			}

			m := aquacore.New(aquacore.Config{}, c.graph, c.source)
			m.SetDry(c.dry)
			res, err := m.Run(c.prog)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Clean() {
				t.Fatalf("simulation events (%d): first %v", len(res.Events), res.Events[0])
			}
		})
	}
}

// errorWitnesses pair every error-severity AIS0xx code with a program the
// verifier flags and whose simulation actually faults.
var errorWitnesses = []struct {
	code diag.Code
	src  string
	tab  ais.VolumeTable
}{
	{aisverify.CodeRanOut, // draw from a never-filled reservoir
		"input s1, ip1\nmove-abs mixer1, s2, 10\nhalt", nil},
	{aisverify.CodeOverflow, // 60 nl + 60 nl into one 100 nl mixer
		"input s1, ip1\nmove-abs mixer1, s1, 600\ninput s1, ip1\nmove-abs mixer1, s1, 600\nhalt", nil},
	{aisverify.CodeLeastCount, // half a least-count unit
		"input s1, ip1\nmove-abs mixer1, s1, 0.5\nhalt", nil},
	{aisverify.CodeOccupiedPort, // refill an output port that still holds fluid
		"input s1, ip1\nmove-abs separator1.out1, s1, 600\nmove-abs separator1.out1, s1, 600\nhalt", nil},
	{aisverify.CodeUseBeforeDef, // dry arithmetic on an unset register
		"dry-add r0, 1\nhalt", nil},
	{aisverify.CodeMalformed, // a register where a vessel belongs
		"move s1, r0\nhalt", nil},
}

// Direction two: every error-severity AIS0xx code has a witness program
// that the verifier flags and whose simulation actually faults (a volume
// event or a machine error). Warning codes flag conditions the machine
// tolerates and so have no fault obligation.
func TestErrorCodesHaveFaultingWitnesses(t *testing.T) {
	for _, w := range errorWitnesses {
		t.Run(w.code.ID, func(t *testing.T) {
			prog, err := ais.Assemble(w.src)
			if err != nil {
				t.Fatal(err)
			}
			flagged := false
			for _, d := range aisverify.Verify(prog, aisverify.Options{Volumes: w.tab}) {
				if d.Code == w.code.ID && d.Severity == diag.Error {
					flagged = true
				}
			}
			if !flagged {
				t.Fatalf("verifier does not flag %s on its witness", w.code)
			}

			m := aquacore.New(aquacore.Config{}, nil, nil)
			if w.tab != nil {
				m.SetVolumeTable(w.tab)
			}
			res, err := m.Run(prog)
			if err == nil && res.Clean() {
				t.Fatalf("witness for %s simulates clean — no fault to predict", w.code)
			}
		})
	}
}
