// Glycomics: run-time volume assignment for an assay with statically
// unknown volumes (§3.5, Fig. 13).
//
// The assay's three separations produce volumes only measurable at run
// time, so the DAG is partitioned into four regions: Vnorms for every
// region are computed at compile time; absolute volumes for a region are
// assigned the moment the separation feeding it reports its measured
// output. The shared buffer3a is used in two different regions and is
// conservatively split 50/50 at compile time; the second separation's
// effluent enters the third region with Vnorm 1/204, exactly as in the
// paper's Fig. 13.
//
// Run with: go run ./examples/glycomics
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
	ep, err := lang.Compile(assays.GlycomicsSource)
	if err != nil {
		log.Fatal(err)
	}
	// The compile fluidc and fluidvm run: partition, solve and certify
	// the static parts, generate, verify.
	res, err := pipeline.Build(ep, pipeline.Options{Config: core.DefaultConfig()})
	if err != nil {
		log.Fatal(err)
	}
	if res.Findings.HasErrors() {
		log.Fatal(res.Findings)
	}
	sp := res.Staged

	fmt.Printf("partitions: %d (paper Fig. 13: 4)\n", sp.NumParts())
	for _, b := range sp.Partition.Bindings {
		ci := sp.Partition.Parts[b.Part].Node(b.NodeID)
		src := ep.Graph.Node(b.SourceID)
		kind := "static split of input"
		if b.SourceUnknown {
			kind = "measured at run time"
		} else if b.SourcePart >= 0 {
			kind = fmt.Sprintf("planned in part %d", b.SourcePart)
		}
		fmt.Printf("  part %d gets %-22s share %.2f  Vnorm %.5f  from %s (%s)\n",
			b.Part, ci.Name, b.Share, sp.Vnorms[b.Part].Node[b.NodeID], src.Name, kind)
	}
	fmt.Printf("solved at compile time: parts %v; the rest wait for measurements\n\n", res.Static)

	// Execute: the machine measures each separation (yield 50% here) and
	// its StagedSource solves and certifies the next partition on the fly.
	m, err := res.Machine(aquacore.Config{SeparationYield: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	run, err := m.Run(res.Prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulation: %d wet instrs, %.0f s fluidic time, clean=%v\n",
		run.WetInstrs, run.WetSeconds, run.Clean())
	for i, p := range m.Source().(*aquacore.StagedSource).Plans() {
		state := "solved"
		if p == nil {
			state = "never needed"
		}
		fmt.Printf("  part %d: %s\n", i, state)
	}
}
