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
	"aquavol/internal/vfs/vfstest"
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

// BenchmarkOpenAppend salvages a killed journal as a resume does: the
// Enzyme assay at n=3 under harsh faults with fluidvm -replan's
// defaults, killed at its middle boundary. One op is one OpenAppend of
// the whole journal, every snapshot's event log included.
func BenchmarkOpenAppend(b *testing.B) {
	ep, err := lang.Compile(assays.EnzymeSource(3))
	if err != nil {
		b.Fatal(err)
	}
	res, err := pipeline.Build(ep, pipeline.Options{Config: core.DefaultConfig()})
	if err != nil {
		b.Fatal(err)
	}
	harsh, _ := faults.Preset("harsh")
	fsys := vfstest.NewMemFS()
	start := func(path string, crashAt int) {
		opts := recovery.Options{RetriesPerInstr: 3, SnapshotEvery: 8, EnableReplan: true, Crash: faults.CrashAt(crashAt)}
		if _, err := recovery.Start(fsys, path, false, res.Executable("enzyme3"), harsh, 1, 0, aquacore.Config{SeparationYield: 0.4}, opts); err != nil {
			b.Fatal(err)
		}
	}
	start("full.aqj", -1)
	recs, err := journal.ReadAll(bytes.NewReader(fsys.Bytes("full.aqj")))
	if err != nil {
		b.Fatal(err)
	}
	steps := 0
	for _, r := range recs {
		if r.Kind == journal.KindStep {
			steps++
		}
	}
	start("run.aqj", steps/2)
	b.SetBytes(int64(len(fsys.Bytes("run.aqj"))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, _, _, f, err := journal.OpenAppend(fsys, "run.aqj")
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		if len(recs) == 0 {
			b.Fatal("nothing salvaged")
		}
	}
}
