package fluidvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// A Finding is one reported diagnostic, resolved to a file position and
// tagged with the analyzer that produced it. Allow-comment misuses are
// reported under the pseudo-analyzer name "allow".
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// allowRe matches the escape hatch. The analyzer name and free-form
// reason are validated separately so misuses get precise findings.
var allowRe = regexp.MustCompile(`^//fluidvet:allow(?:[ \t]+(\S+))?[ \t]*(.*)$`)

// allowEntry is one parsed //fluidvet:allow comment.
type allowEntry struct {
	analyzer string
	reason   string
	pos      token.Pos
}

// allowTable indexes allow comments by file and line.
type allowTable map[string]map[int][]allowEntry

// buildAllowTable scans the comments of files for //fluidvet:allow
// directives and reports misuses (missing analyzer name, unknown
// analyzer name, missing reason) as findings.
func buildAllowTable(fset *token.FileSet, files []*ast.File, misuse func(Finding)) allowTable {
	tab := make(allowTable)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//fluidvet:") {
					continue
				}
				// Declaration directives (//fluidvet:effect,
				// //fluidvet:parallelsafe) belong to the effect layer,
				// which validates them itself.
				if isEffectDirective(c.Text) {
					continue
				}
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					misuse(Finding{
						Analyzer: "allow",
						Pos:      fset.Position(c.Pos()),
						Message:  fmt.Sprintf("malformed fluidvet directive %q (want //fluidvet:allow <analyzer> <reason>)", c.Text),
					})
					continue
				}
				name, reason := m[1], strings.TrimSpace(m[2])
				switch {
				case name == "":
					misuse(Finding{
						Analyzer: "allow",
						Pos:      fset.Position(c.Pos()),
						Message:  "//fluidvet:allow needs an analyzer name and a reason",
					})
					continue
				case !IsAnalyzerName(name):
					misuse(Finding{
						Analyzer: "allow",
						Pos:      fset.Position(c.Pos()),
						Message:  fmt.Sprintf("//fluidvet:allow names unknown analyzer %q (valid: %s)", name, analyzerNames()),
					})
					continue
				case reason == "":
					misuse(Finding{
						Analyzer: "allow",
						Pos:      fset.Position(c.Pos()),
						Message:  fmt.Sprintf("//fluidvet:allow %s needs a reason: every suppressed invariant must say why it is safe", name),
					})
					continue
				}
				posn := fset.Position(c.Pos())
				byLine := tab[posn.Filename]
				if byLine == nil {
					byLine = make(map[int][]allowEntry)
					tab[posn.Filename] = byLine
				}
				byLine[posn.Line] = append(byLine[posn.Line], allowEntry{analyzer: name, reason: reason, pos: c.Pos()})
			}
		}
	}
	return tab
}

// allows reports whether a finding by analyzer at posn is suppressed:
// an allow entry for that analyzer sits on the same line or the line
// directly above.
func (t allowTable) allows(analyzer string, posn token.Position) bool {
	byLine := t[posn.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{posn.Line, posn.Line - 1} {
		for _, e := range byLine[line] {
			if e.analyzer == analyzer {
				return true
			}
		}
	}
	return false
}

func analyzerNames() string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

// Check runs the analyzers over one type-checked package and returns
// the surviving findings, sorted by (file, line, column, analyzer,
// message) so `go vet -vettool` output is byte-stable across runs and
// usable in golden tests. Test files must already have been excluded
// from files. The allow escape hatch is applied here, uniformly for
// every analyzer, and its misuses are returned as findings under the
// "allow" pseudo-analyzer. Effect inference (which the parallelsafe,
// globalstate, and sharedcapture analyzers consume) runs once per
// package; deps supplies imported packages' effect facts (nil is fine
// for single-package runs — externals fall back to the curated table).
func Check(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer, deps EffectFacts) ([]Finding, *Effects, error) {
	var out []Finding
	tab := buildAllowTable(fset, files, func(f Finding) { out = append(out, f) })
	effects := InferEffects(fset, files, pkg, info, deps, func(f Finding) { out = append(out, f) })

	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			Effects:  effects,
		}
		pass.report = func(d Diagnostic) {
			posn := fset.Position(d.Pos)
			if tab.allows(a.Name, posn) {
				return
			}
			out = append(out, Finding{Analyzer: a.Name, Pos: posn, Message: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("fluidvet: %s: %w", a.Name, err)
		}
	}

	SortFindings(out)
	return out, effects, nil
}

// SortFindings orders findings by (file, line, column, analyzer,
// message) — the emission order every driver and test relies on.
func SortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// modulePath is the import-path prefix of this repository. The vet
// driver analyzes only packages under it: go vet hands the tool every
// dependency (standard library included) for fact generation, and those
// must pass through untouched.
const modulePath = "aquavol"

// inModule reports whether the import path (with any " [test-variant]"
// suffix already stripped) belongs to this module.
func inModule(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

// lastSegment returns the final element of an import path: the
// conventional package directory name used for scope matching.
func lastSegment(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// replayCritical is the set of package directory names whose state can
// reach journal records, snapshots, listings, or event streams. A
// determinism violation in any of them breaks bit-identical replay.
// ilp, bench, and budget are included although their wall-clock uses
// are legitimate (a solver deadline, benchmark timers, the budget
// layer's deadline-as-resource-guard): those sites carry
// //fluidvet:allow comments so the exceptions are visible and audited.
var replayCritical = map[string]bool{
	"aquacore": true,
	"journal":  true,
	"recover":  true,
	"faults":   true,
	"codegen":  true,
	"core":     true,
	"certify":  true,
	"dag":      true,
	"ilp":      true,
	"bench":    true,
	"budget":   true,
	"vfs":      true,
	"pipeline": true,
}

// isReplayCritical reports whether pkg is in the replay-critical set.
// Matching is by final path segment so analyzer fixtures under
// testdata/src/<name> exercise the same scoping as the real packages.
func isReplayCritical(pkg *types.Package) bool {
	return replayCritical[lastSegment(pkg.Path())]
}
