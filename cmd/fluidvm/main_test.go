package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aquavol/internal/assays"
	"aquavol/internal/golden"
	"aquavol/internal/journal"
	"aquavol/internal/vfs"
)

const glucose = "../../testdata/glucose.asy"

// runCLI invokes the command in-process and returns (exit, stdout, stderr).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// Exit codes are the scripting contract: each terminal status maps to a
// distinct, documented code.
func TestExitCodes(t *testing.T) {
	// 0: clean run.
	if code, _, errw := runCLI(t, glucose); code != exitCompleted {
		t.Fatalf("clean run exit %d, want %d (stderr: %s)", code, exitCompleted, errw)
	}
	// 2: completed degraded — every FU attempt fails, budget exhausted.
	code, out, _ := runCLI(t, "-faults", "fail=1", "-seed", "1", "-recover", "-retries", "1", glucose)
	if code != exitDegraded {
		t.Fatalf("degraded run exit %d, want %d", code, exitDegraded)
	}
	if !strings.Contains(out, "completed-degraded") {
		t.Fatalf("degraded summary missing: %s", out)
	}
	// 3: aborted (simulated crash).
	dir := t.TempDir()
	if code, _, _ := runCLI(t, "-journal", filepath.Join(dir, "c.aqj"), "-crash-at", "2", glucose); code != exitAborted {
		t.Fatalf("crashed run exit %d, want %d", code, exitAborted)
	}
	// 1: general error (unreadable input).
	if code, _, _ := runCLI(t, filepath.Join(dir, "missing.asy")); code != exitError {
		t.Fatalf("missing input exit %d, want %d", code, exitError)
	}
	// 64: usage.
	if code, _, _ := runCLI(t); code != exitUsage {
		t.Fatalf("no-args exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "-bogus-flag"); code != exitUsage {
		t.Fatalf("bad-flag exit %d, want %d", code, exitUsage)
	}
}

// The durability contract end to end: a journaled run killed mid-flight
// resumes to a stdout byte-identical to the uninterrupted run's.
func TestJournalCrashResume(t *testing.T) {
	dir := t.TempDir()

	refCode, refOut, _ := runCLI(t, "-faults", "moderate", "-seed", "42",
		"-journal", filepath.Join(dir, "ref.aqj"), glucose)
	if refCode != exitCompleted {
		t.Fatalf("reference run exit %d", refCode)
	}

	crashPath := filepath.Join(dir, "crash.aqj")
	code, _, errw := runCLI(t, "-faults", "moderate", "-seed", "42",
		"-journal", crashPath, "-crash-at", "5", glucose)
	if code != exitAborted {
		t.Fatalf("crash run exit %d, want %d (stderr: %s)", code, exitAborted, errw)
	}

	code, out, errw := runCLI(t, "-resume", crashPath, glucose)
	if code != refCode {
		t.Fatalf("resume exit %d, want %d (stderr: %s)", code, refCode, errw)
	}
	if out != refOut {
		t.Errorf("resumed stdout differs from uninterrupted run\n got: %q\nwant: %q", out, refOut)
	}
	if !strings.Contains(errw, "resuming at boundary") {
		t.Errorf("resume notice missing from stderr: %s", errw)
	}

	// A second resume finds the journal closed: nothing to do.
	if code, _, errw := runCLI(t, "-resume", crashPath, glucose); code != exitResumeFailed {
		t.Fatalf("resume of closed journal exit %d, want %d (stderr: %s)", code, exitResumeFailed, errw)
	}
}

// A budget that runs out while -resume rebuilds the assay is a bounded
// stop like any other: exit 5, nothing appended to the journal, and a
// later unbounded -resume completes the run as if it had never stopped.
func TestResumeBudgetTrip(t *testing.T) {
	dir := t.TempDir()
	refCode, refOut, _ := runCLI(t, "-journal", filepath.Join(dir, "ref.aqj"), glucose)
	if refCode != exitCompleted {
		t.Fatalf("reference run exit %d", refCode)
	}
	crashPath := filepath.Join(dir, "crash.aqj")
	if code, _, errw := runCLI(t, "-journal", crashPath, "-crash-at", "5", glucose); code != exitAborted {
		t.Fatalf("crash run exit %d, want %d (stderr: %s)", code, exitAborted, errw)
	}
	crashed, err := os.ReadFile(crashPath)
	if err != nil {
		t.Fatal(err)
	}
	code, _, errw := runCLI(t, "-budget", "20", "-resume", crashPath, glucose)
	if code != exitCancelled {
		t.Fatalf("budget-bounded resume exit %d, want %d (stderr: %s)", code, exitCancelled, errw)
	}
	if !strings.Contains(errw, "work budget exhausted") {
		t.Errorf("budget stop not reported: %s", errw)
	}
	after, err := os.ReadFile(crashPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := journal.ReadAll(bytes.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	if last := recs[len(recs)-1]; last.Kind == journal.KindOutcome || !bytes.Equal(after, crashed) {
		t.Fatalf("the stopped resume changed the journal (last record %s)", last.Kind)
	}
	code, out, errw := runCLI(t, "-resume", crashPath, glucose)
	if code != refCode {
		t.Fatalf("unbounded resume exit %d, want %d (stderr: %s)", code, refCode, errw)
	}
	if out != refOut {
		t.Errorf("resumed stdout differs from the uninterrupted run\n got: %q\nwant: %q", out, refOut)
	}
}

// A shipped (listing, volume table) pair — what fluidc -o/-voltab
// writes — resumes like a compiled assay: killed mid-flight, its resume
// prints stdout byte-identical to the uninterrupted shipped run's.
func TestResumeShippedListing(t *testing.T) {
	dir := t.TempDir()
	res, err := compile(glucose, 0, false, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	listing, voltab := filepath.Join(dir, "g.ais"), filepath.Join(dir, "g.vol")
	if err := os.WriteFile(listing, []byte(res.Prog.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(voltab, []byte(res.Volumes.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	shipped := []string{"-ais", listing, "-voltab", voltab}
	faulty := append(shipped, "-faults", "moderate", "-seed", "42")

	// Retries alone cannot repair every moderate fault of a listing with
	// no DAG, so the reference may finish degraded.
	refCode, refOut, errw := runCLI(t, append(faulty, "-journal", filepath.Join(dir, "ref.aqj"))...)
	if refCode != exitCompleted && refCode != exitDegraded {
		t.Fatalf("reference run exit %d (stderr: %s)", refCode, errw)
	}
	crashPath := filepath.Join(dir, "crash.aqj")
	if code, _, errw := runCLI(t, append(faulty, "-journal", crashPath, "-crash-at", "10")...); code != exitAborted {
		t.Fatalf("crash run exit %d, want %d (stderr: %s)", code, exitAborted, errw)
	}
	code, out, errw := runCLI(t, append(shipped, "-resume", crashPath)...)
	if code != refCode {
		t.Fatalf("resume exit %d, want %d (stderr: %s)", code, refCode, errw)
	}
	if out != refOut {
		t.Errorf("resumed stdout differs from the uninterrupted shipped run\n got: %q\nwant: %q", out, refOut)
	}
	if !strings.Contains(errw, "resuming at boundary 8") {
		t.Errorf("resume did not continue from the boundary-8 snapshot: %s", errw)
	}
}

// Resume refuses a program that does not hash-match the journaled one.
func TestResumeRejectsDifferentProgram(t *testing.T) {
	dir := t.TempDir()
	crashPath := filepath.Join(dir, "crash.aqj")
	if code, _, _ := runCLI(t, "-faults", "moderate", "-seed", "42",
		"-journal", crashPath, "-crash-at", "3", glucose); code != exitAborted {
		t.Fatal("setup crash run did not abort")
	}
	code, _, errw := runCLI(t, "-resume", crashPath, "../../testdata/glycomics.asy")
	if code != exitResumeFailed {
		t.Fatalf("hash-mismatched resume exit %d, want %d", code, exitResumeFailed)
	}
	if !strings.Contains(errw, "different program") {
		t.Errorf("mismatch diagnostic missing: %s", errw)
	}
	if code, _, _ := runCLI(t, "-resume", filepath.Join(dir, "missing.aqj"), glucose); code != exitResumeFailed {
		t.Fatalf("missing journal resume exit %d, want %d", code, exitResumeFailed)
	}
}

// Exit code 6 is the proof-carrying-plans contract: a resume whose
// journal carries a certificate hash that does not match the re-derived
// (and freshly re-certified) plan refuses to execute a single
// instruction and appends no outcome record — the journal stays intact
// as crash evidence. -no-certify is the documented escape hatch.
func TestResumeRejectsCorruptedCertificate(t *testing.T) {
	dir := t.TempDir()
	crashPath := filepath.Join(dir, "crash.aqj")
	if code, _, _ := runCLI(t, "-faults", "moderate", "-seed", "42",
		"-journal", crashPath, "-crash-at", "5", glucose); code != exitAborted {
		t.Fatal("setup crash run did not abort")
	}

	// Forge a journal identical to the crashed one except for the begin
	// record's certificate hash (the frame CRCs protect against bit rot,
	// so the corruption must be re-encoded like an attacker or a buggy
	// tool would).
	f, err := os.Open(crashPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := journal.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Kind != journal.KindBegin || recs[0].Begin.CertHash == 0 {
		t.Fatalf("crashed journal has no certificate hash in its begin record: %+v", recs[0])
	}
	recs[0].Begin.CertHash ^= 0xdeadbeef
	forgedPath := filepath.Join(dir, "forged.aqj")
	w, ff, err := journal.Create(vfs.OS{}, forgedPath, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	ff.Close()

	code, out, errw := runCLI(t, "-resume", forgedPath, glucose)
	if code != exitCertFailed {
		t.Fatalf("corrupted-certificate resume exit %d, want %d (stderr: %s)", code, exitCertFailed, errw)
	}
	if out != "" {
		t.Errorf("refused resume produced stdout: %q", out)
	}
	if !strings.Contains(errw, "certificate hash mismatch") {
		t.Errorf("certificate diagnostic missing from stderr: %s", errw)
	}
	// No outcome record: the journal is still open, exactly as the crash
	// left it, so a corrected binary (or -no-certify) can still resume it.
	f, err = os.Open(forgedPath)
	if err != nil {
		t.Fatal(err)
	}
	after, err := journal.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(recs) {
		t.Errorf("refused resume changed the journal: %d records, want %d", len(after), len(recs))
	}
	for _, r := range after {
		if r.Kind == journal.KindOutcome {
			t.Errorf("refused resume left an outcome record: %+v", r.Outcome)
		}
	}

	// The escape hatch skips the hash check and completes the run.
	if code, _, errw := runCLI(t, "-no-certify", "-resume", forgedPath, glucose); code != exitCompleted {
		t.Fatalf("-no-certify resume exit %d, want %d (stderr: %s)", code, exitCompleted, errw)
	}
}

// A resume over a torn journal tail (process died mid-append) reports
// the truncation on stderr — the reason and how many good bytes
// survived — and still finishes with the uninterrupted run's exit code
// and stdout.
func TestResumeReportsTornTail(t *testing.T) {
	dir := t.TempDir()
	refCode, refOut, _ := runCLI(t, "-faults", "moderate", "-seed", "42",
		"-journal", filepath.Join(dir, "ref.aqj"), glucose)

	crashPath := filepath.Join(dir, "crash.aqj")
	if code, _, _ := runCLI(t, "-faults", "moderate", "-seed", "42",
		"-journal", crashPath, "-crash-at", "6", glucose); code != exitAborted {
		t.Fatal("setup crash run did not abort")
	}
	b, err := os.ReadFile(crashPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(crashPath, b[:len(b)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	code, out, errw := runCLI(t, "-resume", crashPath, glucose)
	if code != refCode {
		t.Fatalf("torn-tail resume exit %d, want %d (stderr: %s)", code, refCode, errw)
	}
	if out != refOut {
		t.Errorf("torn-tail resume stdout differs from uninterrupted run\n got: %q\nwant: %q", out, refOut)
	}
	if !strings.Contains(errw, "recovered journal tail") || !strings.Contains(errw, "good bytes") {
		t.Errorf("torn-tail warning missing from stderr: %s", errw)
	}
}

// A journal of the first format, whose payloads were JSON, is refused by
// name with the resume-failure exit code, and left as it was.
func TestResumeRefusesVersionOne(t *testing.T) {
	payload := []byte(`{"kind":"begin","begin":{"program":"glucose","hash":1,"instrs":1,` +
		`"profile":{"MeterJitter":0,"DeadVolume":0,"EvapRate":0,"SenseNoise":0,"FailRate":0},"seed":42}}`)
	v1 := []byte("AQJRNL1\n")
	v1 = binary.LittleEndian.AppendUint32(v1, uint32(len(payload)))
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(payload))
	v1 = append(v1, payload...)
	path := filepath.Join(t.TempDir(), "old.aqj")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errw := runCLI(t, "-resume", path, glucose)
	if code != exitResumeFailed {
		t.Fatalf("resume of a version 1 journal exit %d, want %d (stderr: %s)", code, exitResumeFailed, errw)
	}
	if !strings.Contains(errw, "version 1") || !strings.Contains(errw, "AQJRNL2") || strings.Contains(errw, "salvageable") {
		t.Errorf("the refusal does not name both versions, or calls the journal damaged: %s", errw)
	}
	if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, v1) {
		t.Errorf("the refused resume changed the journal (%v)", err)
	}
}

// -journal refuses to clobber an existing non-empty journal — it may be
// the only crash evidence of an interrupted run — unless -force-journal
// overrides.
func TestJournalNoClobber(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.aqj")
	if code, _, errw := runCLI(t, "-journal", path, glucose); code != exitCompleted {
		t.Fatalf("first journaled run exit %d (stderr: %s)", code, errw)
	}
	code, _, errw := runCLI(t, "-journal", path, glucose)
	if code != exitError {
		t.Fatalf("clobbering run exit %d, want %d", code, exitError)
	}
	if !strings.Contains(errw, "refusing to clobber") {
		t.Errorf("no-clobber diagnostic missing: %s", errw)
	}
	if code, _, errw := runCLI(t, "-journal", path, "-force-journal", glucose); code != exitCompleted {
		t.Fatalf("forced journaled run exit %d (stderr: %s)", code, errw)
	}
}

// -fsfaults puts an injected filesystem under the journal: a lying fsync
// on the first append poisons the writer and aborts the run (fail-stop),
// while a malformed spec is a usage-level error.
func TestFSFaultsFlag(t *testing.T) {
	dir := t.TempDir()
	// sync #0 is the header sync inside Create, #1 the begin record; #2 is
	// the first record the recovery loop appends.
	code, _, errw := runCLI(t, "-fsfaults", "sync@2:lying",
		"-journal", filepath.Join(dir, "j.aqj"), glucose)
	if code != exitAborted {
		t.Fatalf("lying-fsync run exit %d, want %d (stderr: %s)", code, exitAborted, errw)
	}
	if code, _, _ := runCLI(t, "-fsfaults", "sync@x", glucose); code != exitError {
		t.Fatalf("bad strike spec exit %d, want %d", code, exitError)
	}
	if code, _, _ := runCLI(t, "-fsfaults", "frob=0.5", glucose); code != exitError {
		t.Fatalf("bad rate spec exit %d, want %d", code, exitError)
	}
	// A rate profile with a seed parses and runs (zero faults at rate 0 is
	// not expressible — use a tiny rate over a short run).
	if code, _, errw := runCLI(t, "-fsfaults", "write=0.0001", "-fsfault-seed", "7",
		"-journal", filepath.Join(dir, "r.aqj"), glucose); code != exitCompleted {
		t.Fatalf("low-rate fsfaults run exit %d (stderr: %s)", code, errw)
	}
}

// goldenRuns are the invocations every golden assay runs under, in
// order; "$TMP" names the assay's private directory, so the journaled
// crash is resumed by the row after it.
var goldenRuns = [][]string{
	nil,
	{"-trace"},
	{"-faults", "moderate", "-seed", "42", "-recover"},
	{"-replan", "-faults", "harsh", "-seed", "7"},
	{"-margin", "0.1", "-faults", "mild", "-seed", "3", "-recover"},
	{"-no-certify", "-replan"},
	{"-faults", "moderate", "-seed", "42", "-journal", "$TMP/crash.aqj", "-crash-at", "5"},
	{"-resume", "$TMP/crash.aqj"},
}

// budgetRuns pin where a -budget trips on a fresh run: planning and
// execution must charge the meter exactly as they always have.
var budgetRuns = map[string][][]string{
	"glucose": {
		{"-budget", "20", "-faults", "moderate", "-seed", "42", "-journal", "$TMP/plantrip.aqj"},
		{"-budget", "80", "-faults", "moderate", "-seed", "42", "-journal", "$TMP/cancel.aqj"},
	},
	"glycomics": {
		{"-budget", "100"},
		{"-budget", "150"},
		{"-budget", "300", "-replan", "-faults", "mild", "-seed", "5"},
	},
}

// TestGolden runs the paper assays under the golden matrix and compares
// exit code, stdout and stderr with testdata/golden/<assay>.golden.
func TestGolden(t *testing.T) {
	enzyme := filepath.Join(t.TempDir(), "enzyme2.asy")
	if err := os.WriteFile(enzyme, []byte(assays.EnzymeSource(2)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, a := range []struct{ name, path string }{
		{"glucose", glucose},
		{"glycomics", "../../testdata/glycomics.asy"},
		{"enzyme2", enzyme},
	} {
		t.Run(a.name, func(t *testing.T) {
			t.Parallel()
			tmp := t.TempDir()
			clean := strings.NewReplacer(tmp, "$TMP").Replace
			var b strings.Builder
			for _, flags := range append(goldenRuns, budgetRuns[a.name]...) {
				args := make([]string, 0, len(flags)+1)
				for _, f := range flags {
					args = append(args, strings.ReplaceAll(f, "$TMP", tmp))
				}
				code, out, errw := runCLI(t, append(args, a.path)...)
				fmt.Fprintf(&b, "=== fluidvm %s\nexit %d\n", strings.Join(append(flags, filepath.Base(a.path)), " "), code)
				golden.Section(&b, "stdout", clean(out))
				golden.Section(&b, "stderr", clean(errw))
			}
			golden.Check(t, filepath.Join("testdata", "golden", a.name+".golden"), b.String())
		})
	}
}
