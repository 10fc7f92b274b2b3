// Package golden records command transcripts for the CLI golden tests:
// each case renders its exit code and output streams into one text
// block, and the blocks of a test input are compared line by line
// against a checked-in file. Run the tests with -update to rewrite the
// files from the current code.
package golden

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden transcripts from the current code")

// Updating reports whether the tests run with -update, for golden
// files a test compares by itself.
func Updating() bool { return *update }

// digestOver is the size above which a section is recorded as its
// SHA-256 digest instead of its text.
const digestOver = 16 << 10

// Section appends one named output to a transcript. Empty outputs are
// omitted; outputs over digestOver bytes are recorded by digest; a
// missing final newline is marked so it cannot compare equal to a
// present one.
func Section(b *strings.Builder, name, content string) {
	if content == "" {
		return
	}
	fmt.Fprintf(b, "--- %s\n", name)
	switch {
	case len(content) > digestOver:
		fmt.Fprintf(b, "sha256 %x (%d bytes)\n", sha256.Sum256([]byte(content)), len(content))
	case !strings.HasSuffix(content, "\n"):
		fmt.Fprintf(b, "%s\n\\ no newline at end\n", content)
	default:
		b.WriteString(content)
	}
}

// Check compares got with the golden file at path line by line, or
// rewrites the file under -update.
func Check(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	expect, lines := loadLines(want), loadLines([]byte(got))
	mismatches := 0
	for i := 0; i < max(len(lines), len(expect)) && mismatches < 5; i++ {
		var g, w string
		if i < len(lines) {
			g = lines[i]
		}
		if i < len(expect) {
			w = expect[i]
		}
		if i >= len(lines) || i >= len(expect) || g != w {
			t.Errorf("%s:%d: got %q, want %q", path, i+1, g, w)
			mismatches++
		}
	}
}

func loadLines(data []byte) []string {
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines
}
