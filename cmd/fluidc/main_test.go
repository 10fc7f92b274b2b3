package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"aquavol/internal/assays"
	"aquavol/internal/golden"
)

// flagSets are the invocations every input runs under. "$OUT" names the
// case's private output directory.
var flagSets = [][]string{
	nil,
	{"-lint"},
	{"-Werror"},
	{"-plan"},
	{"-dot"},
	{"-no-manage"},
	{"-no-verify"},
	{"-no-certify"},
	{"-mutate-plan"},
	{"-o", "$OUT/g.ais", "-voltab", "$OUT/g.vol"},
}

// slowInputs take seconds per compile, so they run only with no flag and
// with -dot.
var slowInputs = map[string]bool{"vol002_fanout": true}

// TestGolden compiles every shipped assay, every lint exemplar and the
// generated Enzyme assays under each flag set, and compares exit code,
// stdout, stderr and written files with testdata/golden/<input>.golden.
func TestGolden(t *testing.T) {
	tmp := t.TempDir()
	inputs := map[string]string{}
	for _, pattern := range []string{"../../testdata/*.asy", "../../internal/analysis/testdata/lint/*.asy"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			inputs[strings.TrimSuffix(filepath.Base(p), ".asy")] = p
		}
	}
	for n := 2; n <= 4; n++ {
		p := filepath.Join(tmp, fmt.Sprintf("enzyme%d.asy", n))
		if err := os.WriteFile(p, []byte(assays.EnzymeSource(n)), 0o644); err != nil {
			t.Fatal(err)
		}
		inputs[fmt.Sprintf("enzyme%d", n)] = p
	}
	names := make([]string, 0, len(inputs))
	for name := range inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := inputs[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var b strings.Builder
			for _, flags := range flagSets {
				if slowInputs[name] && len(flags) > 0 && flags[0] != "-dot" {
					continue
				}
				transcript(t, &b, flags, path, tmp)
			}
			golden.Check(t, filepath.Join("testdata", "golden", name+".golden"), b.String())
		})
	}
}

// transcript runs one compile and appends its exit code and outputs to b,
// with temporary directories spelled $TMP and $OUT.
func transcript(t *testing.T, b *strings.Builder, flags []string, path, tmp string) {
	t.Helper()
	out := t.TempDir()
	args := make([]string, 0, len(flags)+1)
	for _, f := range flags {
		args = append(args, strings.ReplaceAll(f, "$OUT", out))
	}
	var stdout, stderr bytes.Buffer
	code := run(append(args, path), &stdout, &stderr)
	clean := strings.NewReplacer(out, "$OUT", tmp, "$TMP").Replace
	fmt.Fprintf(b, "=== fluidc %s\nexit %d\n", strings.Join(append(flags, filepath.Base(path)), " "), code)
	golden.Section(b, "stdout", clean(stdout.String()))
	golden.Section(b, "stderr", clean(stderr.String()))
	files, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(out, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		golden.Section(b, "file "+f.Name(), clean(string(data)))
	}
}
