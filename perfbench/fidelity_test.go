package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The fidelity tests prove the benchmark times what users run: each
// mirrored pipeline's output must be byte-identical to the real
// command's.

// repoRoot is the repository root, relative to this package.
const repoRoot = ".."

// buildTool builds one of the repository's commands into dir.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "aquavol/cmd/"+name)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// runTool runs bin from the repository root and returns its stdout,
// stderr and exit status.
func runTool(t *testing.T, bin string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = repoRoot
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	default:
		t.Fatalf("running %s: %v", bin, err)
		return "", "", 0
	}
}

// onDisk returns a path fluidc can read s from: the shipped file, or
// a generated source written under dir.
func onDisk(t *testing.T, dir string, s source) string {
	t.Helper()
	if _, err := os.Stat(filepath.Join(repoRoot, s.path)); err == nil {
		return s.path
	}
	p := filepath.Join(dir, s.path)
	if err := os.WriteFile(p, []byte(s.text), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func sameAsFluidc(t *testing.T, bin, what string, got *fluidcRun, args ...string) {
	t.Helper()
	stdout, stderr, exit := runTool(t, bin, args...)
	if got.Exit != exit || got.Stdout != stdout || got.Stderr != stderr {
		t.Errorf("%s: mirror and fluidc %s differ\nmirror: exit %d\n%s%s\nfluidc: exit %d\n%s%s",
			what, strings.Join(args, " "), got.Exit, got.Stderr, head(got.Stdout), exit, stderr, head(stdout))
	}
}

func head(s string) string {
	if len(s) > 300 {
		return s[:300] + "...\n"
	}
	return s
}

func TestCompileMirrorMatchesFluidc(t *testing.T) {
	dir := t.TempDir()
	fluidcBin := buildTool(t, dir, "fluidc")
	srcs, err := compileSources(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range srcs {
		path := onDisk(t, dir, s)
		sameAsFluidc(t, fluidcBin, s.name, fluidc(path, s.text, true, false, nil), "-lint", path)
	}
}

func TestPlanMirrorMatchesFluidc(t *testing.T) {
	if testing.Short() {
		t.Skip("plans the Enzyme assay at n=5")
	}
	dir := t.TempDir()
	fluidcBin := buildTool(t, dir, "fluidc")
	for _, n := range []int{4, 5} {
		s := enzymeSource(n)
		path := onDisk(t, dir, s)
		sameAsFluidc(t, fluidcBin, s.name, fluidc(path, s.text, false, true, nil), "-dot", path)
		// The known-failure row runs the full pipeline.
		full := fluidc(path, s.text, false, false, nil)
		sameAsFluidc(t, fluidcBin, s.name+" (full pipeline)", full, path)
		if full.Exit == 0 {
			t.Logf("%s now compiles to AIS; the known-failure row is obsolete", s.name)
		}
	}
}

// fluidvmSummary is the part of fluidvm's output the execute mirror
// reproduces: the recovery summary and the executed-instruction and
// fluidic-time lines.
func fluidvmSummary(res *vmResult) string {
	r := res.out.Result
	return fmt.Sprintf("recovery: %s\nexecuted %d wet + %d dry instructions\nfluidic time %.1f s, electronic time %.3g s\n",
		res.out.Summary(), r.WetInstrs, r.DryInstrs, r.WetSeconds, r.DrySeconds)
}

func firstLines(s string, n int) string {
	lines := strings.SplitAfter(s, "\n")
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "")
}

func TestExecuteMirrorMatchesFluidvm(t *testing.T) {
	dir := t.TempDir()
	fluidvmBin := buildTool(t, dir, "fluidvm")
	srcs, err := paperSources(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]source{}
	for _, s := range srcs {
		byName[s.name] = s
	}
	cases := []struct {
		assay, profile string
		seed           int64
		crashAt        int
	}{
		{"glucose", "moderate", 42, -1},
		{"glucose", "moderate", 42, 7},
		{"glycomics", "harsh", 7, -1},
		{"glycomics", "mild", 3, 20},
		{"enzyme2", "mild", 11, -1},
		{"enzyme3", "harsh", 5, 40},
	}
	compiled := map[string]*vmAssay{}
	for i, c := range cases {
		s := byName[c.assay]
		path := onDisk(t, dir, s)
		a := compiled[c.assay]
		if a == nil {
			if a, err = compileVM(s.name, s.text); err != nil {
				t.Fatal(err)
			}
			compiled[c.assay] = a
		}
		res, err := a.run(vmRun{profile: c.profile, seed: c.seed, crashAt: c.crashAt}, nil)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		got := fluidvmSummary(res)
		args := []string{"-replan", "-faults", c.profile, "-seed", fmt.Sprint(c.seed)}
		want, _, _ := runTool(t, fluidvmBin, append(args, path)...)
		if c.crashAt >= 0 {
			j := filepath.Join(dir, fmt.Sprintf("run%d.aqj", i))
			if _, stderr, exit := runTool(t, fluidvmBin, append(args, "-journal", j, "-crash-at", fmt.Sprint(c.crashAt), path)...); exit != 3 {
				t.Fatalf("%+v: killed fluidvm exited %d, want 3 (aborted)\n%s", c, exit, stderr)
			}
			resumed, stderr, _ := runTool(t, fluidvmBin, "-resume", j, path)
			if firstLines(resumed, 3) != firstLines(want, 3) {
				t.Fatalf("%+v: fluidvm -resume differs from the uninterrupted run\n%s%s", c, resumed, stderr)
			}
		}
		if got != firstLines(want, 3) {
			t.Errorf("%+v: mirror and fluidvm differ\nmirror:\n%sfluidvm:\n%s", c, got, firstLines(want, 3))
		}
	}
}
