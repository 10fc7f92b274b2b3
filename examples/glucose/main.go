// Glucose: the full compiler pipeline on the paper's Fig. 9 assay —
// high-level source → AIS code → volume plan → execution on the AquaCore
// simulator.
//
// The assay builds a four-point calibration curve of glucose against a
// reagent (mix ratios 1:1, 1:2, 1:4, 1:8) plus the sample measurement.
// The reagent is used five times, making it the volume bottleneck: it is
// dispensed at the full 100 nl machine capacity and the smallest resulting
// transfer is 3.3 nl — comfortably above the 0.1 nl least count, so the
// whole plan is computed at compile time (§4.2).
//
// Run with: go run ./examples/glucose
package main

import (
	"fmt"
	"log"

	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/core"
	"aquavol/internal/lang"
	"aquavol/internal/pipeline"
)

func main() {
	ep, err := lang.Compile(assays.GlucoseSource)
	if err != nil {
		log.Fatal(err)
	}
	// The compile fluidc and fluidvm run: plan, certify, generate, verify.
	res, err := pipeline.Build(ep, pipeline.Options{Config: core.DefaultConfig()})
	if err != nil {
		log.Fatal(err)
	}
	if res.Findings.HasErrors() {
		log.Fatal(res.Findings)
	}
	fmt.Println("--- volume plan ---")
	fmt.Print(res.Plan)

	fmt.Println("\n--- AIS listing (compare paper Fig. 9b) ---")
	fmt.Print(res.Prog)

	m, err := res.Machine(aquacore.Config{})
	if err != nil {
		log.Fatal(err)
	}
	run, err := m.Run(res.Prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- simulation ---")
	fmt.Printf("wet %d instrs / %.0f s, dry %d instrs / %.3g s, clean=%v\n",
		run.WetInstrs, run.WetSeconds, run.DryInstrs, run.DrySeconds, run.Clean())
	for i := 1; i <= 5; i++ {
		key := fmt.Sprintf("Result[%d]", i)
		fmt.Printf("%s = %.2f (sensed volume, nl)\n", key, run.Dry[key])
	}
}
