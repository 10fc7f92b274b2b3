package fluidvet

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEffectLattice pins the inferred summary of every function in the
// effects fixture: one row per lattice transition (pure chain, global
// read, global write direct and through a pointer, interface-call
// widening, SCC recursion, caller-bound values, Once-guarded writes,
// directive override, IO, spawning).
func TestEffectLattice(t *testing.T) {
	fx := loadFixture(t, "effects")
	eff := fx.effects(t)

	tests := []struct {
		fn       string
		want     Effect
		asserted bool
	}{
		{fn: "effects.pureLeaf", want: EffectPure},
		{fn: "effects.pureChain", want: EffectPure},
		{fn: "effects.readsTable", want: EffectReadsGlobal},
		{fn: "effects.writesCounter", want: EffectReadsGlobal | EffectWritesGlobal},
		{fn: "effects.writesThroughPointer", want: EffectReadsGlobal | EffectWritesGlobal},
		{fn: "effects.callsInterface", want: effectWorst},
		{fn: "effects.recursiveA", want: EffectReadsGlobal | EffectWritesGlobal},
		{fn: "effects.recursiveB", want: EffectReadsGlobal | EffectWritesGlobal},
		{fn: "effects.callsParam", want: EffectCallsParam},
		{fn: "effects.gets", want: EffectReadsGlobal},
		{fn: "effects.doesIO", want: EffectIO},
		{fn: "effects.spawns", want: EffectSpawns},
		{fn: "effects.asserted", want: EffectPure, asserted: true},
		{fn: "effects.goodEntry", want: EffectReadsGlobal},
		{fn: "effects.paramEntry", want: EffectCallsParam},
		{fn: "effects.assertedEntry", want: EffectPure},
		{fn: "effects.badEntry", want: EffectReadsGlobal | EffectWritesGlobal},
		{fn: "effects.ioEntry", want: EffectIO},
		{fn: "effects.spawnEntry", want: EffectSpawns},
		{fn: "effects.widenedEntry", want: effectWorst},
	}
	for _, tt := range tests {
		s, ok := eff.OfName(tt.fn)
		if !ok {
			t.Errorf("%s: no summary inferred", tt.fn)
			continue
		}
		if s.Effect != tt.want {
			t.Errorf("%s: effect = %v, want %v", tt.fn, s.Effect, tt.want)
		}
		if s.Asserted != tt.asserted {
			t.Errorf("%s: asserted = %v, want %v", tt.fn, s.Asserted, tt.asserted)
		}
		// Every carried effect bit must come with a witness explaining it
		// (assertions witness the directive itself).
		for _, en := range effectNames {
			if s.Effect&en.bit != 0 && len(s.Witness[en.bit]) == 0 {
				t.Errorf("%s: effect %s has no witness path", tt.fn, en.name)
			}
		}
	}
}

// TestEffectWitnessPath checks that a transitive effect's witness reads
// as a proof trace from the entry to the leaf cause.
func TestEffectWitnessPath(t *testing.T) {
	fx := loadFixture(t, "effects")
	eff := fx.effects(t)

	s, ok := eff.OfName("effects.badEntry")
	if !ok {
		t.Fatal("no summary for effects.badEntry")
	}
	path := s.Witness[EffectWritesGlobal]
	if len(path) != 2 {
		t.Fatalf("witness path length = %d, want 2 (call + leaf): %v", len(path), path)
	}
	if want := "effects.badEntry calls effects.writesCounter"; path[0].Desc != want {
		t.Errorf("step 0 = %q, want %q", path[0].Desc, want)
	}
	if want := "effects.writesCounter writes package-level var effects.counter"; path[1].Desc != want {
		t.Errorf("step 1 = %q, want %q", path[1].Desc, want)
	}
	for i, step := range path {
		if step.Pos == "" {
			t.Errorf("step %d carries no position", i)
		}
	}
}

// TestParallelSafeFixture runs the certifying analyzer over the effects
// fixture: annotated entry points that write, do IO, spawn, or widen
// through an interface are findings with full call paths; pure,
// read-only, caller-bound, and asserted entries pass.
func TestParallelSafeFixture(t *testing.T) {
	runFixture(t, "effects", ParallelSafe)
}

func TestGlobalStateFixture(t *testing.T) {
	runFixture(t, "core", GlobalState)
}

// TestGlobalStateOutOfScope: the same package-level mutations outside
// the solver core produce nothing (the effects fixture writes
// effects.counter freely and is not in the solverCore set).
func TestGlobalStateOutOfScope(t *testing.T) {
	fx := loadFixture(t, "effects")
	for _, f := range fx.check(t, GlobalState) {
		t.Errorf("unexpected globalstate finding outside the solver core: %s", f)
	}
}

func TestSharedCaptureFixture(t *testing.T) {
	runFixture(t, "sharedcapture", SharedCapture)
}

// TestEffectFactsRoundTrip serializes a package's summaries the way the
// vet driver does (JSON into the .vetx facts channel) and checks the
// decoded facts drive Effects.Of exactly like the originals.
func TestEffectFactsRoundTrip(t *testing.T) {
	fx := loadFixture(t, "effects")
	eff := fx.effects(t)

	facts := eff.Facts()
	if len(facts) == 0 {
		t.Fatal("no facts exported")
	}
	blob, err := json.Marshal(facts)
	if err != nil {
		t.Fatalf("marshaling facts: %v", err)
	}
	var decoded EffectFacts
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("unmarshaling facts: %v", err)
	}
	if len(decoded) != len(facts) {
		t.Fatalf("decoded %d facts, want %d", len(decoded), len(facts))
	}
	for name, s := range facts {
		d, ok := decoded[name]
		if !ok {
			t.Errorf("%s: missing after round trip", name)
			continue
		}
		if d.Effect != s.Effect {
			t.Errorf("%s: effect %v -> %v across round trip", name, s.Effect, d.Effect)
		}
		if d.Asserted != s.Asserted {
			t.Errorf("%s: asserted %v -> %v across round trip", name, s.Asserted, d.Asserted)
		}
		for bit, path := range s.Witness {
			if len(d.Witness[bit]) != len(path) {
				t.Errorf("%s: witness for %v has %d steps, want %d", name, bit, len(d.Witness[bit]), len(path))
			}
		}
	}

	// A dependent package resolving through the decoded facts sees the
	// same classification (this is the cross-package propagation path).
	imported := &Effects{deps: decoded}
	if s, ok := imported.deps["effects.writesCounter"]; !ok || s.Effect&EffectWritesGlobal == 0 {
		t.Errorf("decoded facts lost the writes-global classification of effects.writesCounter")
	}
}

// TestEffectDirectiveMisuse checks the validation of the declaration
// directives programmatically (the findings land on the directive lines,
// which cannot also carry want comments).
func TestEffectDirectiveMisuse(t *testing.T) {
	fx := loadFixture(t, "effectsbad")
	findings := fx.check(t)

	wants := []string{
		`names unknown effect "launders-money"`,
		`needs an effect list and a reason`,
		`malformed directive`,
	}
	for _, w := range wants {
		found := false
		for _, f := range findings {
			if f.Analyzer == "effect" && regexp.MustCompile(w).MatchString(f.Message) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no effect-misuse finding matching %q in %v", w, findings)
		}
	}
	if len(findings) != len(wants) {
		t.Errorf("got %d findings, want %d: %v", len(findings), len(wants), findings)
	}
}

// TestSortFindings pins the byte-stable emission order: (file, line,
// column, analyzer, message).
func TestSortFindings(t *testing.T) {
	mk := func(file string, line, col int, analyzer, msg string) Finding {
		return Finding{Analyzer: analyzer, Message: msg,
			Pos: token.Position{Filename: file, Line: line, Column: col}}
	}
	in := []Finding{
		mk("b.go", 1, 1, "determinism", "z"),
		mk("a.go", 2, 1, "parallelsafe", "m"),
		mk("a.go", 1, 9, "globalstate", "m"),
		mk("a.go", 1, 2, "sharedcapture", "m"),
		mk("a.go", 1, 2, "globalstate", "b"),
		mk("a.go", 1, 2, "globalstate", "a"),
	}
	want := []Finding{
		mk("a.go", 1, 2, "globalstate", "a"),
		mk("a.go", 1, 2, "globalstate", "b"),
		mk("a.go", 1, 2, "sharedcapture", "m"),
		mk("a.go", 1, 9, "globalstate", "m"),
		mk("a.go", 2, 1, "parallelsafe", "m"),
		mk("b.go", 1, 1, "determinism", "z"),
	}
	SortFindings(in)
	for i := range want {
		if in[i] != want[i] {
			t.Fatalf("position %d: got %v, want %v", i, in[i], want[i])
		}
	}
}

// parseEntryPoint splits a CertifiedEntryPoints entry (a
// types.Func.FullName) into package path, receiver type name (if a
// method), and function name.
func parseEntryPoint(full string) (pkgPath, recv, name string) {
	if strings.HasPrefix(full, "(*") {
		end := strings.Index(full, ")")
		inner := full[2:end]
		i := strings.LastIndex(inner, ".")
		return inner[:i], inner[i+1:], full[end+2:]
	}
	i := strings.LastIndex(full, ".")
	return full[:i], "", full[i+1:]
}

// TestCertifiedEntryPointsAnnotated is the meta-check tying the three
// consumers together: every entry in CertifiedEntryPoints must resolve
// to a declaration in the module source that carries the exact
// //fluidvet:parallelsafe directive, and — the reverse direction — every
// directive in the module must be in the list, so the certified set
// cannot drift from the code, the README table, or the smoke test.
func TestCertifiedEntryPointsAnnotated(t *testing.T) {
	if len(CertifiedEntryPoints) < 6 {
		t.Fatalf("CertifiedEntryPoints lists %d entry points, want at least the 6 from the certification issue", len(CertifiedEntryPoints))
	}
	fset := token.NewFileSet()
	for _, full := range CertifiedEntryPoints {
		pkgPath, recv, name := parseEntryPoint(full)
		if !strings.HasPrefix(pkgPath, "aquavol/") {
			t.Errorf("%s: not a module package", full)
			continue
		}
		dir := filepath.Join("..", "..", strings.TrimPrefix(pkgPath, "aquavol/"))
		if !entryPointAnnotated(t, fset, dir, recv, name) {
			t.Errorf("%s: no declaration in %s carries //fluidvet:parallelsafe", full, dir)
		}
	}

	// Reverse: the number of directives in the module equals the number
	// of certified entries, so nothing is annotated without being listed.
	count := countDirectives(t, filepath.Join("..", ".."))
	if count != len(CertifiedEntryPoints) {
		t.Errorf("module carries %d //fluidvet:parallelsafe directives, but CertifiedEntryPoints lists %d", count, len(CertifiedEntryPoints))
	}
}

// entryPointAnnotated reports whether package directory dir declares
// recv.name (or plain name) with the parallelsafe directive in its doc.
func entryPointAnnotated(t *testing.T, fset *token.FileSet, dir, recv, name string) bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", e.Name(), err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != name || fd.Doc == nil {
				continue
			}
			if recvTypeOf(fd) != recv {
				continue
			}
			for _, c := range fd.Doc.List {
				if c.Text == "//fluidvet:parallelsafe" {
					return true
				}
			}
		}
	}
	return false
}

// recvTypeOf names a declaration's receiver base type ("" for plain
// functions).
func recvTypeOf(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// countDirectives counts exact //fluidvet:parallelsafe lines in module
// sources (testdata fixtures excluded — they annotate deliberately-bad
// entry points).
func countDirectives(t *testing.T, root string) int {
	t.Helper()
	count := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(blob), "\n") {
			if strings.TrimSpace(line) == "//fluidvet:parallelsafe" {
				count++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return count
}

// TestNoTrustedEffectsOutsideFluidvet keeps every certificate resting on
// inference alone: a //fluidvet:effect directive is an audited assertion
// the analyzer trusts without proof, so no Go file outside fluidvet's own
// code and testdata fixtures may carry one. Adding a trusted assertion
// anywhere else needs a reviewed change to this test.
func TestNoTrustedEffectsOutsideFluidvet(t *testing.T) {
	root := filepath.Join("..", "..")
	own := filepath.Join(root, "internal", "fluidvet")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || d.Name() == ".git" || path == own {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//fluidvet:effect") {
					t.Errorf("%s: trusted effect assertion outside internal/fluidvet: %s", fset.Position(c.Pos()), c.Text)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCertifiedListMatchesREADME gates the documentation: every
// certified entry point must appear (by FullName) in the README's
// parallel-safety section, so the published table and the enforced list
// cannot diverge. CI runs this via go test.
func TestCertifiedListMatchesREADME(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	readme := string(blob)
	for _, full := range CertifiedEntryPoints {
		if !strings.Contains(readme, full) {
			t.Errorf("README.md does not mention certified entry point %s", full)
		}
	}
}
