// Package fluidvet statically enforces the repository's determinism,
// diagnostics, and durability invariants as a suite of vet analyzers.
//
// The invariants it mechanizes are the ones the runtime layers rely on
// but cannot check for themselves:
//
//   - determinism: crash-resume (internal/journal, internal/recover)
//     replays a run bit-identically from (listing, seed, profile). One
//     wall-clock read, one draw from the unseeded global PRNG, or one
//     map-order-dependent loop in a replay-critical package silently
//     breaks that contract.
//   - diagnostics: VOL/AIS/ASM diagnostic codes are a stable public
//     surface. Every code must be minted through the internal/diag
//     registry so it is unique, carries a severity, and is documented.
//   - error taxonomy: recovery classifies faults with errors.Is, so
//     error paths must wrap with %w and declared sentinels must
//     actually be produced somewhere.
//   - durability: the write-ahead journal's guarantees are only as good
//     as its fsync/Close/CRC discipline; discarding one of those results
//     turns "durable" into "probably".
//   - exhaustiveness: switches over journal record kinds and machine
//     event kinds must handle every variant (or carry an explicit
//     default), so adding a kind cannot silently fall through replay or
//     repair logic.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) but is implemented on the standard library alone, because
// this module builds offline with no third-party dependencies. The
// cmd/fluidvet driver speaks the `go vet -vettool` unitchecker protocol,
// so the suite runs as `go vet -vettool=$(fluidvet) ./...` in ci.sh.
//
// Findings can be suppressed, one line at a time, with an escape hatch:
//
//	//fluidvet:allow <analyzer> <reason>
//
// placed on the flagged line or the line directly above it. The reason
// is mandatory and the analyzer name must be one of the suite's; both
// misuses are themselves findings.
package fluidvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in findings and in
	// //fluidvet:allow comments. It must be a lower-case identifier.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces
	// and why the invariant exists.
	Doc string
	// Run performs the check over one package, reporting findings
	// through pass.Report.
	Run func(pass *Pass) error
}

// A Pass is one analyzer applied to one package. The driver constructs
// it with full type information; Files holds the package's non-test
// files only (test files may use wall clocks and raw codes freely).
// Effects is the package's interprocedural effect-inference result
// (with imported facts joined in); it is computed once per package and
// shared by every analyzer in the run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Effects  *Effects

	report func(Diagnostic)
}

// A Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Report records a finding.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf records a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// All returns the full suite in a stable order. The driver, the ci.sh
// gate, and the allow-comment validator all use this list, so an
// analyzer name is valid in //fluidvet:allow iff it appears here.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		DiagCode,
		ErrWrap,
		SyncErr,
		EnumSwitch,
		ParallelSafe,
		GlobalState,
		SharedCapture,
	}
}

// IsAnalyzerName reports whether name names an analyzer in the suite.
func IsAnalyzerName(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}
