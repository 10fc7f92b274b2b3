package recovery_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/core"
	"aquavol/internal/faults"
	"aquavol/internal/golden"
	"aquavol/internal/journal"
	"aquavol/internal/lang"
	"aquavol/internal/pipeline"
	recovery "aquavol/internal/recover"
)

// fluidvm's defaults for a -replan run: the configuration the journal
// golden's begin records carry.
const (
	vmYield         = 0.4
	vmRetries       = 3
	vmSnapshotEvery = 8
	vmJournal       = "run.aqj"
)

// TestJournalGolden pins the bytes of every journal fluidvm -replan
// writes for the shipped paper assays under each fault preset and fault
// seeds 1–12: once uninterrupted, and once killed at its middle
// instruction boundary and resumed from the salvaged journal (the
// fluidvm -resume path: journal.OpenAppend, then
// recovery.ResumeFallback). A line records a journal's length and
// SHA-256, so any change to the record encoding, to which records are
// written, or to the state they carry fails here.
func TestJournalGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("384 journaled runs under the race detector; ci.sh runs this test without it")
	}
	specs := []struct{ name, src string }{
		{"glucose", assays.GlucoseSource},
		{"glycomics", assays.GlycomicsSource},
		{"enzyme2", assays.EnzymeSource(2)},
		{"enzyme3", assays.EnzymeSource(3)},
	}
	var b strings.Builder
	for _, s := range specs {
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
			for seed := int64(1); seed <= 12; seed++ {
				run := fmt.Sprintf("%s %s seed=%d", s.name, pname, seed)
				full, fullState := journaledRun(t, s.name, run, res, p, seed, -1)
				fmt.Fprintf(&b, "%s full | %d bytes sha256 %x\n", run, len(full), sha256.Sum256(full))
				n := stepRecords(t, run, full)
				if n == 0 {
					t.Fatalf("%s: journal records no instruction boundary", run)
				}
				killed, killedState := journaledRun(t, s.name, run, res, p, seed, n/2)
				if killedState != fullState {
					t.Errorf("%s: run killed at boundary %d resumed to a different final state", run, n/2)
				}
				fmt.Fprintf(&b, "%s kill@%d | %d bytes sha256 %x\n", run, n/2, len(killed), sha256.Sum256(killed))
			}
		}
	}
	golden.Check(t, "testdata/golden/journals.golden", b.String())
}

// journaledRun runs the compiled assay as fluidvm -replan -journal does
// and returns the journal's bytes and the final machine-state digest.
// With crashAt >= 0 the run is killed after that boundary and resumed
// from its journal as fluidvm -resume does.
func journaledRun(t *testing.T, program, run string, res *pipeline.Result, p faults.Profile, seed int64, crashAt int) ([]byte, string) {
	t.Helper()
	machine := func(p faults.Profile, seed int64, yield float64) (*aquacore.Machine, error) {
		acfg := aquacore.Config{SeparationYield: yield}
		if p.Enabled() {
			acfg.Faults = faults.New(p, seed)
		}
		return res.Machine(acfg)
	}
	m, err := machine(p, seed, vmYield)
	if err != nil {
		t.Fatalf("%s: %v", run, err)
	}
	fsys := newMemFS()
	jw, jf, err := journal.Create(fsys, vmJournal, false)
	if err != nil {
		t.Fatalf("%s: %v", run, err)
	}
	if err := jw.Append(&journal.Record{Kind: journal.KindBegin, Begin: &journal.Begin{
		Program: program,
		Hash:    crc32.ChecksumIEEE([]byte(res.Prog.String())),
		Instrs:  len(res.Prog.Instrs),
		Profile: p, Seed: seed,
		Yield:   vmYield,
		Retries: vmRetries, SnapshotEvery: vmSnapshotEvery,
		Replan:   true,
		CertHash: res.CertHash,
	}}); err != nil {
		t.Fatalf("%s: %v", run, err)
	}
	opts := recovery.Options{RetriesPerInstr: vmRetries, SnapshotEvery: vmSnapshotEvery, EnableReplan: true, Journal: jw}
	if crashAt >= 0 {
		opts.Crash = faults.CrashAt(crashAt)
	}
	out := recovery.Run(m, res.Prog, res.Compiled(), opts)
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}
	if crashAt >= 0 {
		if !errors.Is(out.Err, faults.ErrCrash) {
			t.Fatalf("%s: kill at boundary %d did not strike: run ended %s", run, crashAt, out.Status)
		}
		recs, _, w, f, err := journal.OpenAppend(fsys, vmJournal)
		if err != nil {
			t.Fatalf("%s: resume: %v", run, err)
		}
		begin := recs[0].Begin
		newMachine := func() (*aquacore.Machine, error) {
			m, err = machine(begin.Profile, begin.Seed, begin.Yield)
			return m, err
		}
		ropts := recovery.Options{
			RetriesPerInstr: begin.Retries,
			SnapshotEvery:   begin.SnapshotEvery,
			EnableReplan:    begin.Replan,
			Journal:         w,
		}
		if snaps := recovery.Snapshots(recs); len(snaps) == 0 {
			if _, err := newMachine(); err != nil {
				t.Fatalf("%s: resume: %v", run, err)
			}
			recovery.Run(m, res.Prog, res.Compiled(), ropts)
		} else if _, _, err := recovery.ResumeFallback(newMachine, res.Prog, res.Compiled(), ropts, snaps, nil); err != nil {
			t.Fatalf("%s: resume: %v", run, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return fsys.files[vmJournal].b, stateDigest(t, m)
}

// stepRecords counts the instruction boundaries a journal records.
func stepRecords(t *testing.T, run string, j []byte) int {
	t.Helper()
	recs, err := journal.ReadAll(bytes.NewReader(j))
	if err != nil {
		t.Fatalf("%s: reading back the journal: %v", run, err)
	}
	n := 0
	for _, r := range recs {
		if r.Kind == journal.KindStep {
			n++
		}
	}
	return n
}
