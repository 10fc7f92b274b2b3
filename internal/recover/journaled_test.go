package recovery_test

import (
	"errors"
	"testing"

	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/certify"
	"aquavol/internal/core"
	"aquavol/internal/faults"
	"aquavol/internal/journal"
	"aquavol/internal/lang"
	"aquavol/internal/pipeline"
	recovery "aquavol/internal/recover"
	"aquavol/internal/vfs/vfstest"
)

func executable(t *testing.T, name, src string) *recovery.Executable {
	t.Helper()
	ep, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Build(ep, pipeline.Options{Config: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	return res.Executable(name)
}

// Resume hands its rebuild callback the begin record Start wrote, with
// the whole run configuration, and refuses, with a typed error and
// without running, every journal it cannot continue.
func TestResumeRefusals(t *testing.T) {
	glucose := executable(t, "glucose", assays.GlucoseSource)
	p, _ := faults.Preset("moderate")
	opts := recovery.Options{RetriesPerInstr: 2, SnapshotEvery: 4, EnableReplan: true}
	start := func(fsys *vfstest.MemFS, crashAt int) {
		t.Helper()
		o := opts
		if crashAt >= 0 {
			o.Crash = faults.CrashAt(crashAt)
		}
		if out, err := recovery.Start(fsys, vmJournal, false, glucose, p, 42, 0.1, aquacore.Config{SeparationYield: 0.5}, o); err != nil {
			t.Fatal(err)
		} else if crashAt >= 0 && !errors.Is(out.Err, faults.ErrCrash) {
			t.Fatalf("kill at boundary %d did not strike: run ended %s", crashAt, out.Status)
		}
	}
	resume := func(fsys *vfstest.MemFS, x *recovery.Executable, o recovery.Options) (*recovery.Outcome, *journal.Begin, error) {
		var got *journal.Begin
		out, _, err := recovery.Resume(fsys, vmJournal, aquacore.Config{}, o,
			func(b *journal.Begin) (*recovery.Executable, error) { got = b; return x, nil }, nil)
		return out, got, err
	}

	killed := vfstest.NewMemFS()
	start(killed, 9)
	out, b, err := resume(killed, glucose, recovery.Options{})
	if err != nil || out.Status == recovery.Aborted {
		t.Fatalf("resume of a killed run: %v", err)
	}
	want := journal.Begin{Program: "glucose", Hash: b.Hash, Instrs: len(glucose.Prog.Instrs), Profile: p, Seed: 42,
		Margin: 0.1, Yield: 0.5, Retries: 2, SnapshotEvery: 4, Replan: true, CertHash: glucose.CertHash}
	if *b != want {
		t.Errorf("rebuild handed %+v, want %+v", *b, want)
	}
	if _, _, err := resume(killed, glucose, recovery.Options{}); !errors.Is(err, recovery.ErrClosed) {
		t.Errorf("resume of a finished journal: %v, want ErrClosed", err)
	}

	noBegin := vfstest.NewMemFS()
	jw, f, err := journal.Create(noBegin, vmJournal, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Append(&journal.Record{Kind: journal.KindStep, Step: &journal.Step{}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if out, b, err := resume(noBegin, glucose, recovery.Options{}); out != nil || b != nil || !errors.Is(err, recovery.ErrNoBegin) {
		t.Errorf("resume of a journal with no begin record: %v (rebuild called: %v), want ErrNoBegin", err, b != nil)
	}

	failed := vfstest.NewMemFS()
	start(failed, 9)
	errBuild := errors.New("rebuild failed")
	if out, _, err := recovery.Resume(failed, vmJournal, aquacore.Config{}, recovery.Options{},
		func(*journal.Begin) (*recovery.Executable, error) { return nil, errBuild }, nil); out != nil || !errors.Is(err, errBuild) {
		t.Errorf("resume whose rebuild failed: %v, want the rebuild's error", err)
	}

	for _, tc := range []struct {
		name string
		x    *recovery.Executable
		opts recovery.Options
		want error
	}{
		{"other program", executable(t, "glycomics", assays.GlycomicsSource), recovery.Options{}, recovery.ErrOtherProgram},
		{"other certificate", &recovery.Executable{Name: "glucose", Prog: glucose.Prog, Compiled: glucose.Compiled,
			CertHash: glucose.CertHash ^ 1, Machine: glucose.Machine}, recovery.Options{}, certify.ErrHash},
		{"other certificate, unchecked", &recovery.Executable{Name: "glucose", Prog: glucose.Prog, Compiled: glucose.Compiled,
			CertHash: glucose.CertHash ^ 1, Machine: glucose.Machine}, recovery.Options{NoCertify: true}, nil},
	} {
		fsys := vfstest.NewMemFS()
		start(fsys, 9)
		out, _, err := resume(fsys, tc.x, tc.opts)
		if !errors.Is(err, tc.want) || (out == nil) != (tc.want != nil) {
			t.Errorf("%s: resume returned outcome %v, error %v; want error %v", tc.name, out != nil, err, tc.want)
		}
	}
}
