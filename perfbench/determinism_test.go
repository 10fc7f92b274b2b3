package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"aquavol/internal/diag"
)

// deterministic reports whether a metric must repeat exactly under one
// seed: every count, and every figure that is not a time, an
// allocation, or the runtime's own CPU accounting.
func deterministic(m metric) bool {
	switch {
	case m.unit == "ms", m.unit == "KiB", m.unit == "1/s", m.unit == "MB":
		return false
	case m.name == "setup_s", m.name == "gc.cpu_share", strings.HasPrefix(m.name, "trace."):
		return false
	}
	return true
}

// figures runs the benchmark's measurement of workload name briefly,
// traced, and returns the deterministic per-layer metrics and the
// untraced run's deterministic end-to-end metrics.
func figures(t *testing.T, name string, seed int64) map[string]float64 {
	t.Helper()
	w, err := newWorkload(name, repoRoot, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	tr := measureTraced(w, 0)
	res := tr.result(w, discard{})
	for _, m := range perLayer {
		if deterministic(m) {
			out[m.name] = res.metrics[m.name]
		}
	}
	if res.failed != 0 {
		t.Errorf("%s: %d of %d ops failed: %v", name, res.failed, res.attempted, res.errs)
	}
	completed, reagent := tr.plain.quality()
	out["completed_share"], out["reagent_nl_per_run"] = completed, reagent
	out["pass_share"] = float64(res.attempted-res.failed) / float64(res.attempted)
	return out
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestDeterministicMetricsRepeat(t *testing.T) {
	for _, name := range []string{"compile", "plan", "execute"} {
		if name == "plan" && testing.Short() {
			continue
		}
		a, b := figures(t, name, 1), figures(t, name, 1)
		if !reflect.DeepEqual(a, b) {
			for k := range a {
				if a[k] != b[k] {
					t.Errorf("%s: %s differs between two runs with one seed: %v vs %v", name, k, a[k], b[k])
				}
			}
		}
	}
}

func TestSeedReordersOpsOverSameInputs(t *testing.T) {
	c1, err := newCompile(repoRoot, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := newCompile(repoRoot, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c1.inputs(), c2.inputs()) {
		t.Error("compile inputs depend on the seed")
	}
	if reflect.DeepEqual(c1.cycle, c2.cycle) {
		t.Error("compile op order does not depend on the seed")
	}
	if !reflect.DeepEqual(sortedCopy(c1.cycle), sortedCopy(c2.cycle)) {
		t.Error("compile seeds run different op mixes")
	}

	e1, err := newExecute(repoRoot, 1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := newExecute(repoRoot, 2)
	if err != nil {
		t.Fatal(err)
	}
	runs := func(w *executeWL) []runKey {
		var rs []runKey
		for _, op := range w.ops {
			rs = append(rs, w.key(op))
		}
		return rs
	}
	sorted := func(rs []runKey) []runKey {
		rs = append([]runKey(nil), rs...)
		sort.Slice(rs, func(i, j int) bool { return fmt.Sprint(rs[i]) < fmt.Sprint(rs[j]) })
		return rs
	}
	r1, r2 := runs(e1), runs(e2)
	if !reflect.DeepEqual(sorted(r1), sorted(r2)) {
		t.Error("execute seeds run different (assay, profile, fault seed) runs")
	}
	if reflect.DeepEqual(r1, r2) {
		t.Error("execute op order does not depend on the seed")
	}
	n1, n2 := e1.inputs(), e2.inputs()
	sort.Strings(n1)
	sort.Strings(n2)
	if reflect.DeepEqual(n1, n2) {
		t.Error("execute kill choices do not depend on the seed")
	}
}

func sortedCopy(xs []int) []int {
	s := append([]int(nil), xs...)
	sort.Ints(s)
	return s
}

// The lint rejections are the ones the exemplars are named after.
func TestLintRejections(t *testing.T) {
	w, err := newCompile(repoRoot, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"vol001_yield_squeeze": {"VOL001"},
		"vol011_noexcess":      {"VOL001", "VOL011"},
	}
	for i, s := range w.srcs {
		r := w.ref[i]
		var codes []string
		for _, d := range r.Findings {
			if d.Severity == diag.Error {
				codes = append(codes, d.Code)
			}
		}
		if exp, ok := want[s.name]; ok {
			if r.Exit != 1 || !reflect.DeepEqual(codes, exp) {
				t.Errorf("%s: exit %d with error codes %v, want exit 1 with %v", s.name, r.Exit, codes, exp)
			}
		} else if r.Exit != 0 {
			t.Errorf("%s: rejected: %s", s.name, r.Stderr)
		}
	}
}

// A reference that fails its check at set-up fails every op on its
// input, and only those: the run goes on and reports the cause.
func TestFailedReferenceFailsItsOps(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{}
	for _, rel := range []string{"testdata/glucose.asy", "testdata/glycomics.asy", lintDir + "/clean.asy"} {
		b, err := os.ReadFile(filepath.Join(repoRoot, rel))
		if err != nil {
			t.Fatal(err)
		}
		files[rel] = string(b)
	}
	files[lintDir+"/clean.golden"] = "1:1: warning[VOL999]: not what clean.asy yields\n"
	for rel, text := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w, err := newCompile(root, 1)
	if err != nil {
		t.Fatalf("set-up stopped: %v", err)
	}
	m := newMeasured()
	for k := 0; k < w.size(); k++ {
		m.timeOp(w, k, nil)
	}
	// Five inputs: glucose, glycomics, enzyme2, enzyme3 and clean.
	if m.ops != 5*compilePasses || m.failed != compilePasses || m.completed != 4*compilePasses {
		t.Errorf("%d ops, %d failed, %d completed; want %d, %d, %d",
			m.ops, m.failed, m.completed, 5*compilePasses, compilePasses, 4*compilePasses)
	}
	if len(m.errs) != 1 || !strings.Contains(m.errs[0], "clean: lint findings differ from clean.golden") {
		t.Errorf("causes = %q, want the clean.golden mismatch once", m.errs)
	}
}

// BENCHMARK.json lists exactly the metrics the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
