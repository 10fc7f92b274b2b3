package fluidvet

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// EnumSwitch enforces exhaustiveness for the enums whose variants gate
// replay and repair behavior: the journal's record Kind and aquacore's
// EventKind. A switch over one of these with neither full coverage nor
// an explicit default is how a newly added kind silently falls through
// resume, incident classification, or event accounting — the compiler
// accepts it and no test fails until a run actually emits the new kind.
// An explicit default documents that the fall-through is intended.
var EnumSwitch = &Analyzer{
	Name: "enumswitch",
	Doc:  "switches over journal record kinds and aquacore event kinds must be exhaustive or carry an explicit default",
	Run:  runEnumSwitch,
}

// guardedEnum reports whether the named type is one of the guarded
// enums. Matching is by type name (plus declaring-package name for the
// journal's generic "Kind") so analyzer fixtures can declare
// structurally identical enums.
func guardedEnum(named *types.Named) bool {
	obj := named.Obj()
	switch obj.Name() {
	case "EventKind":
		return true
	case "Kind":
		return obj.Pkg() != nil && obj.Pkg().Name() == "journal"
	}
	return false
}

func runEnumSwitch(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			t := pass.TypeOf(sw.Tag)
			if t == nil {
				return true
			}
			named, ok := t.(*types.Named)
			if !ok || !guardedEnum(named) {
				return true
			}
			variants := enumVariants(named)
			if len(variants) < 2 {
				return true
			}
			covered := map[string]bool{}
			for _, stmt := range sw.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				if cc.List == nil {
					// An explicit default is the documented catch-all.
					return true
				}
				for _, e := range cc.List {
					tv, ok := pass.Info.Types[e]
					if !ok || tv.Value == nil {
						// A non-constant case defeats static coverage
						// reasoning; stand down rather than guess.
						return true
					}
					for name, val := range variants {
						if constant.Compare(tv.Value, token.EQL, val) {
							covered[name] = true
						}
					}
				}
			}
			var missing []string
			for name := range variants {
				if !covered[name] {
					missing = append(missing, name)
				}
			}
			if len(missing) == 0 {
				return true
			}
			sort.Strings(missing)
			pass.Reportf(sw.Pos(),
				"switch over %s is not exhaustive: missing %s; handle every kind or add an explicit default so a newly added kind cannot silently fall through",
				named.Obj().Name(), strings.Join(missing, ", "))
			return true
		})
	}
	return nil
}

// enumVariants returns the named constants of type named declared in
// its defining package, keyed by name.
func enumVariants(named *types.Named) map[string]constant.Value {
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return nil
	}
	out := map[string]constant.Value{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if !types.Identical(c.Type(), named) {
			continue
		}
		out[name] = c.Val()
	}
	return out
}
