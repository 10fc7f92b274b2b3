package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aquavol/internal/analysis"
	"aquavol/internal/core"
	"aquavol/internal/golden"
)

// TestGolden lints every assay in testdata/lint and compares the rendered
// findings against the matching .golden file. Each volNNN_*.asy file is
// additionally required to actually produce its namesake code, so the
// corpus stays an exemplar of one diagnostic per file.
func TestGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "lint", "*.asy"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files under testdata/lint")
	}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".asy")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			findings, _, err := analysis.LintSource(string(src), core.DefaultConfig(), analysis.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, d := range findings {
				b.WriteString(d.Error())
				b.WriteByte('\n')
			}
			got := b.String()

			path := strings.TrimSuffix(file, ".asy") + ".golden"
			if golden.Updating() {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (rerun with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings differ from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}

			// volNNN_*.asy must exhibit the code it is named after.
			if code, _, ok := strings.Cut(name, "_"); ok && strings.HasPrefix(code, "vol") {
				wantCode := "VOL" + strings.TrimPrefix(code, "vol")
				found := false
				for _, d := range findings {
					if d.Code == wantCode {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("corpus file %s produced no %s finding", file, wantCode)
				}
			}
			if name == "clean" && len(findings) > 0 {
				t.Errorf("clean.asy produced findings:\n%s", got)
			}
		})
	}
}
