package fluidvet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The fixture harness: each package under testdata/src/<name> is parsed,
// type-checked against real export data (stdlib and module packages,
// compiled on demand via `go list -export`), and run through Check with
// a chosen analyzer set. Expected findings are declared inline with
//
//	expr // want `regexp`
//
// comments: every finding must match a want on its line, and every want
// must be matched, so the fixtures pin both trigger and suppress
// behavior of each analyzer.

// wantRe extracts the body of a want comment; backquoted segments inside
// are the expectation regexps, matched against "analyzer: message".
var (
	wantRe   = regexp.MustCompile(`// want (.*)$`)
	wantItem = regexp.MustCompile("`([^`]*)`")
)

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// fixture is a loaded, type-checked fixture package.
type fixture struct {
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loadFixture parses and type-checks testdata/src/<name> as package path
// <name> (so replay-critical scoping keyed on the path's last segment
// behaves exactly as for the real packages).
func loadFixture(t *testing.T, name string) *fixture {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	imports := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil {
				imports[p] = true
			}
		}
	}
	if len(files) == 0 {
		t.Fatalf("fixture %s has no Go files", name)
	}
	pkg, info, err := typeCheck(fset, files, name, "", fixtureImporter(t, fset, imports))
	if err != nil {
		t.Fatalf("typechecking fixture %s: %v", name, err)
	}
	return &fixture{fset: fset, files: files, pkg: pkg, info: info}
}

// check runs Check over the fixture with the given analyzers.
func (fx *fixture) check(t *testing.T, analyzers ...*Analyzer) []Finding {
	t.Helper()
	findings, _, err := Check(fx.fset, fx.files, fx.pkg, fx.info, analyzers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// effects runs the inference alone over the fixture (no analyzers).
func (fx *fixture) effects(t *testing.T) *Effects {
	t.Helper()
	_, eff, err := Check(fx.fset, fx.files, fx.pkg, fx.info, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eff
}

// runFixture loads the fixture, runs the analyzers, and matches findings
// against the fixture's want comments.
func runFixture(t *testing.T, name string, analyzers ...*Analyzer) {
	t.Helper()
	fx := loadFixture(t, name)
	findings := fx.check(t, analyzers...)

	// A fixture may carry wants for several analyzers (journal serves both
	// syncerr and enumswitch); only the wants addressed to the analyzers
	// under test are in play for this run. Every want regexp leads with
	// its analyzer's name, so the prefix routes it.
	inPlay := map[string]bool{"allow": true, "effect": true}
	for _, a := range analyzers {
		inPlay[a.Name] = true
	}
	wantOwner := regexp.MustCompile(`^([a-z]+):`)

	wants := map[string][]*expectation{} // "file:line" -> expectations
	for _, f := range fx.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := fx.fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(posn.Filename), posn.Line)
				items := wantItem.FindAllStringSubmatch(m[1], -1)
				if len(items) == 0 {
					t.Fatalf("%s: want comment carries no backquoted regexp: %s", key, c.Text)
				}
				for _, it := range items {
					owner := wantOwner.FindStringSubmatch(it[1])
					if owner == nil {
						t.Fatalf("%s: want regexp must lead with `analyzer:`: %s", key, it[1])
					}
					if !inPlay[owner[1]] {
						continue
					}
					wants[key] = append(wants[key], &expectation{re: regexp.MustCompile(it[1])})
				}
			}
		}
	}

	for _, f := range findings {
		full := f.Analyzer + ": " + f.Message
		key := fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)
		ok := false
		for _, w := range wants[key] {
			if w.re.MatchString(full) {
				w.matched, ok = true, true
			}
		}
		if !ok {
			t.Errorf("unexpected finding at %s: %s", key, full)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no finding matched want `%s`", key, w.re)
			}
		}
	}
}

// exportCache memoizes `go list -export` results across fixtures; the
// test binary runs single-package but subtests share the process.
var (
	exportMu    sync.Mutex
	exportFiles = map[string]string{} // import path -> export data file
)

// fixtureImporter resolves fixture imports from compiler export data,
// asking the go command to (re)build it into the build cache. This works
// offline: stdlib and module sources are local.
func fixtureImporter(t *testing.T, fset *token.FileSet, imports map[string]bool) types.Importer {
	t.Helper()
	var need []string
	exportMu.Lock()
	for p := range imports {
		if _, ok := exportFiles[p]; !ok && p != "unsafe" {
			need = append(need, p)
		}
	}
	exportMu.Unlock()
	if len(need) > 0 {
		args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export"}, need...)
		cmd := exec.Command("go", args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list -export %v: %v\n%s", need, err, stderr.String())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		exportMu.Lock()
		for {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				exportMu.Unlock()
				t.Fatalf("decoding go list output: %v", err)
			}
			if p.Export != "" {
				exportFiles[p.ImportPath] = p.Export
			}
		}
		exportMu.Unlock()
	}
	compilerImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		exportMu.Lock()
		file, ok := exportFiles[path]
		exportMu.Unlock()
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, "aquacore", Determinism)
}

// TestDeterminismCertifyFixture pins the certify package's scoping:
// certificate checking and hashing are replay-critical (hashes are
// journaled and re-verified on resume), so clock reads, global PRNG
// draws, and order-dependent float folds are flagged there.
func TestDeterminismCertifyFixture(t *testing.T) {
	runFixture(t, "certify", Determinism)
}

// TestDeterminismPipelineFixture pins the compile pipeline's scoping:
// listings and journaled plan hashes come out of it, so map-ordered
// verifier inputs and clock reads there are flagged.
func TestDeterminismPipelineFixture(t *testing.T) {
	runFixture(t, "pipeline", Determinism)
}

// TestDeterminismOutOfScope: the same constructs outside the
// replay-critical set produce nothing.
func TestDeterminismOutOfScope(t *testing.T) {
	runFixture(t, "clerk", Determinism)
}

// TestDeterminismBudgetFixture pins the budget package's scoping: the
// work-budget layer is replay-critical, its deadline clock reads are
// the audited exception (//fluidvet:allow determinism with a reason),
// and a naked clock read there is flagged.
func TestDeterminismBudgetFixture(t *testing.T) {
	runFixture(t, "budget", Determinism)
}

func TestDiagCodeFixture(t *testing.T) {
	runFixture(t, "diagcode", DiagCode)
}

func TestErrWrapFixture(t *testing.T) {
	runFixture(t, "recover", ErrWrap)
}

func TestSyncErrFixture(t *testing.T) {
	runFixture(t, "journal", SyncErr)
}

// TestSyncErrVFSFixture pins the vfs extension: Sync/Close on vfs.File
// (interface or implementation) and SyncDir on vfs.FS are check-required
// in replay-critical packages, with the same allow escape hatch.
func TestSyncErrVFSFixture(t *testing.T) {
	runFixture(t, "vfs", SyncErr)
}

func TestEnumSwitchJournalKindFixture(t *testing.T) {
	runFixture(t, "journal", EnumSwitch)
}

func TestEnumSwitchFixture(t *testing.T) {
	runFixture(t, "enumswitch", EnumSwitch)
}

// TestAllowFixture pins the escape-hatch semantics programmatically (the
// misuse findings land on directive-comment lines, which cannot also
// carry want comments): a well-formed allow with a reason suppresses the
// finding on its line or the line below; a malformed, unknown-analyzer,
// or reasonless directive suppresses nothing and is itself a finding.
func TestAllowFixture(t *testing.T) {
	fx := loadFixture(t, "faults")
	findings := fx.check(t, Determinism)

	type want struct {
		analyzer string
		re       string
	}
	expect := map[string][]want{ // function containing the line -> findings
		"UnknownName": {
			{"allow", `unknown analyzer "clockcheck"`},
			{"determinism", `call to time\.Now`},
		},
		"NoReason": {
			{"allow", `needs a reason`},
			{"determinism", `call to time\.Now`},
		},
		"NoName": {
			{"allow", `needs an analyzer name and a reason`},
			{"determinism", `call to time\.Now`},
		},
		"WrongVerb": {
			{"allow", `malformed fluidvet directive`},
		},
	}
	// Resolve each named function's line range so expectations are not
	// brittle against fixture edits.
	ranges := map[string][2]int{}
	for _, f := range fx.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				start := fd.Pos()
				if fd.Doc != nil {
					start = fd.Doc.Pos() // directives may sit in the doc comment
				}
				ranges[fd.Name.Name] = [2]int{
					fx.fset.Position(start).Line,
					fx.fset.Position(fd.End()).Line,
				}
			}
		}
	}
	within := func(fn string, line int) bool {
		r, ok := ranges[fn]
		return ok && line >= r[0] && line <= r[1]
	}

	matched := map[*Finding]bool{}
	for fn, ws := range expect {
		for _, w := range ws {
			found := false
			for i := range findings {
				f := &findings[i]
				if matched[f] || f.Analyzer != w.analyzer || !within(fn, f.Pos.Line) {
					continue
				}
				if regexp.MustCompile(w.re).MatchString(f.Message) {
					matched[f] = true
					found = true
					break
				}
			}
			if !found {
				t.Errorf("missing finding in %s: %s matching %q", fn, w.analyzer, w.re)
			}
		}
	}
	for i := range findings {
		f := &findings[i]
		if !matched[f] {
			t.Errorf("unexpected finding (should be suppressed or absent): %s", f)
		}
	}
}
