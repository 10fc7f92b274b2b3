package journal_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
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

// TestDecoderTakesJournalGolden reads back every journal that
// internal/recover's journal golden pins — fluidvm -replan runs of the
// four paper assays under every fault preset and seeds 1–12, each
// uninterrupted and killed at its middle boundary, salvaged and resumed
// — and requires the decoder to take every record, and every record to
// re-encode to its own bytes. The journals are checked against the
// golden's lengths and digests first, so the walk covers exactly those
// bytes.
func TestDecoderTakesJournalGolden(t *testing.T) {
	raw, err := os.ReadFile("../recover/testdata/golden/journals.golden")
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		pinned[line] = true
	}
	seeds := int64(12)
	if raceEnabled {
		seeds = 1
	}
	check := func(line string, j []byte) []*journal.Record {
		t.Helper()
		if !pinned[fmt.Sprintf("%s | %d bytes sha256 %x", line, len(j), sha256.Sum256(j))] {
			t.Fatalf("%s: the journal is not the one journals.golden pins", line)
		}
		return readReencoded(t, line, j)
	}
	journals, records := 0, 0
	for _, s := range []struct{ name, src string }{
		{"glucose", assays.GlucoseSource},
		{"glycomics", assays.GlycomicsSource},
		{"enzyme2", assays.EnzymeSource(2)},
		{"enzyme3", assays.EnzymeSource(3)},
	} {
		ep, err := lang.Compile(s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		res, err := pipeline.Build(ep, pipeline.Options{Config: core.DefaultConfig()})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, pname := range faults.Presets() {
			p, _ := faults.Preset(pname)
			for seed := int64(1); seed <= seeds; seed++ {
				run := fmt.Sprintf("%s %s seed=%d", s.name, pname, seed)
				full, _ := replanRun(t, res.Executable(s.name), p, seed, -1)
				recs := check(run+" full", full)
				steps := 0
				for _, r := range recs {
					if r.Kind == journal.KindStep {
						steps++
					}
				}
				killed, salvaged := replanRun(t, res.Executable(s.name), p, seed, steps/2)
				records += len(recs) + len(readReencoded(t, run+" salvaged", salvaged))
				records += len(check(fmt.Sprintf("%s kill@%d", run, steps/2), killed))
				journals += 2
			}
		}
	}
	t.Logf("all %d records of %d journals and their salvaged prefixes re-encode to their own bytes", records, journals)
}

// replanRun runs x as fluidvm -replan -journal does and returns its
// journal. With crashAt >= 0 the run is killed after that boundary and
// resumed as fluidvm -resume does; the journal as the kill left it is
// returned too.
func replanRun(t *testing.T, x *recovery.Executable, p faults.Profile, seed int64, crashAt int) (final, salvaged []byte) {
	t.Helper()
	const path = "run.aqj"
	fsys := vfstest.NewMemFS()
	opts := recovery.Options{RetriesPerInstr: 3, SnapshotEvery: 8, EnableReplan: true}
	if crashAt >= 0 {
		opts.Crash = faults.CrashAt(crashAt)
	}
	out, err := recovery.Start(fsys, path, false, x, p, seed, 0, aquacore.Config{SeparationYield: 0.4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if crashAt < 0 {
		return fsys.Bytes(path), nil
	}
	if !errors.Is(out.Err, faults.ErrCrash) {
		t.Fatalf("kill at boundary %d did not strike: run ended %s", crashAt, out.Status)
	}
	salvaged = bytes.Clone(fsys.Bytes(path))
	rebuild := func(*journal.Begin) (*recovery.Executable, error) { return x, nil }
	if _, _, err := recovery.Resume(fsys, path, aquacore.Config{}, recovery.Options{}, rebuild, nil); err != nil {
		t.Fatalf("resume: %v", err)
	}
	return fsys.Bytes(path), salvaged
}

// readReencoded reads every record of a clean journal and requires
// appending them to a new journal to give back the same bytes.
func readReencoded(t *testing.T, what string, j []byte) []*journal.Record {
	t.Helper()
	jr := journal.NewReader(bytes.NewReader(j))
	var recs []*journal.Record
	var again bytes.Buffer
	jw, err := journal.NewWriter(&again)
	if err != nil {
		t.Fatal(err)
	}
	for {
		rec, err := jr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if err := jw.Append(rec); err != nil {
			t.Fatalf("%s: record %d: %v", what, len(recs), err)
		}
		recs = append(recs, rec)
	}
	if !bytes.Equal(again.Bytes(), j) {
		t.Fatalf("%s: the %d records re-encode to different bytes", what, len(recs))
	}
	return recs
}
