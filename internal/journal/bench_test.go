package journal_test

import (
	"bytes"
	"io"
	"testing"

	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/core"
	"aquavol/internal/faults"
	"aquavol/internal/journal"
	"aquavol/internal/lang"
	"aquavol/internal/pipeline"
	recovery "aquavol/internal/recover"
)

// BenchmarkAppendSnapshot appends the snapshot records of a real
// journaled run, the Enzyme assay at n=3 under harsh faults with
// fluidvm -replan's defaults, in the order the run wrote them. One op is
// one snapshot append; each pass over the run's snapshots starts a
// fresh writer, so the event log grows from empty as it does in a run.
func BenchmarkAppendSnapshot(b *testing.B) {
	ep, err := lang.Compile(assays.EnzymeSource(3))
	if err != nil {
		b.Fatal(err)
	}
	res, err := pipeline.Build(ep, pipeline.Options{Config: core.DefaultConfig()})
	if err != nil {
		b.Fatal(err)
	}
	harsh, _ := faults.Preset("harsh")
	m, err := res.Machine(aquacore.Config{SeparationYield: 0.4, Faults: faults.New(harsh, 1)})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	jw, err := journal.NewWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	recovery.Run(m, res.Prog, res.Compiled(), recovery.Options{RetriesPerInstr: 3, SnapshotEvery: 8, EnableReplan: true, Journal: jw})
	recs, err := journal.ReadAll(&buf)
	if err != nil {
		b.Fatal(err)
	}
	var snaps []*journal.Record
	for _, r := range recs {
		if r.Kind == journal.KindSnapshot {
			snaps = append(snaps, r)
		}
	}
	if len(snaps) == 0 {
		b.Fatal("the run journaled no snapshot")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(snaps)
		if k == 0 {
			if jw, err = journal.NewWriter(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		if err := jw.Append(snaps[k]); err != nil {
			b.Fatal(err)
		}
	}
}
