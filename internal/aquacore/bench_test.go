package aquacore_test

import (
	"testing"

	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/core"
	"aquavol/internal/faults"
	"aquavol/internal/lang"
	"aquavol/internal/pipeline"
)

// BenchmarkExecFaulty runs the Enzyme assay at n=3, compiled as fluidvm
// compiles it, on a machine under the harsh fault profile: evaporation
// touches every vessel at every wet instruction, and metering, dead
// volume and transient failures strike the transfers. One op is one
// whole run on a fresh machine, fault seeds cycling through 1–12.
func BenchmarkExecFaulty(b *testing.B) {
	ep, err := lang.Compile(assays.EnzymeSource(3))
	if err != nil {
		b.Fatal(err)
	}
	res, err := pipeline.Build(ep, pipeline.Options{Config: core.DefaultConfig()})
	if err != nil {
		b.Fatal(err)
	}
	harsh, _ := faults.Preset("harsh")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := res.Machine(aquacore.Config{Faults: faults.New(harsh, int64(i%12+1))})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(res.Prog); err != nil {
			b.Fatal(err)
		}
	}
}
