package lp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Direction selects whether the objective is minimized or maximized.
type Direction int

const (
	// Minimize the objective function.
	Minimize Direction = iota
	// Maximize the objective function.
	Maximize
)

func (d Direction) String() string {
	switch d {
	case Minimize:
		return "min"
	case Maximize:
		return "max"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Sense is the relational operator of a constraint.
type Sense int

const (
	// LE is a ≤ constraint.
	LE Sense = iota
	// GE is a ≥ constraint.
	GE
	// EQ is an = constraint.
	EQ
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// VarID identifies a variable within a Problem.
type VarID int

// ConID identifies a constraint within a Problem.
type ConID int

// Term is one coefficient–variable product in a linear expression.
type Term struct {
	Var  VarID
	Coef float64
}

type variable struct {
	name string
	lo   float64 // lower bound, may be -Inf
	hi   float64 // upper bound, may be +Inf
	obj  float64 // objective coefficient
}

type constraint struct {
	name  string
	terms []Term
	sense Sense
	rhs   float64
}

// Problem is a linear program under construction. The zero value is not
// usable; create problems with NewProblem.
//
// Problems are append-only: variables and constraints may be added but not
// removed. Solve leaves the Problem unchanged, so one Problem may be solved
// repeatedly (e.g. from benchmarks) or with different Options.
type Problem struct {
	dir  Direction
	vars []variable
	cons []constraint
}

// NewProblem returns an empty problem with the given objective direction.
func NewProblem(dir Direction) *Problem {
	return &Problem{dir: dir}
}

// Direction reports the objective direction of the problem.
func (p *Problem) Direction() Direction { return p.dir }

// NumVariables reports the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.vars) }

// NumConstraints reports the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// AddVariable adds a variable named name with default bounds [0, +Inf) and
// zero objective coefficient, returning its id.
func (p *Problem) AddVariable(name string) VarID {
	p.vars = append(p.vars, variable{name: name, lo: 0, hi: math.Inf(1)})
	return VarID(len(p.vars) - 1)
}

// SetBounds sets the variable's inclusive bounds. lo may be -Inf and hi may
// be +Inf. SetBounds panics if v is out of range or lo > hi.
func (p *Problem) SetBounds(v VarID, lo, hi float64) {
	if lo > hi {
		panic(fmt.Sprintf("lp: variable %s bounds inverted: [%g, %g]", p.vars[v].name, lo, hi))
	}
	p.vars[v].lo = lo
	p.vars[v].hi = hi
}

// Bounds reports the variable's bounds.
func (p *Problem) Bounds(v VarID) (lo, hi float64) {
	return p.vars[v].lo, p.vars[v].hi
}

// SetObjective sets the variable's objective coefficient, replacing any
// previous value.
func (p *Problem) SetObjective(v VarID, coef float64) {
	p.vars[v].obj = coef
}

// VariableName reports the name a variable was created with.
func (p *Problem) VariableName(v VarID) string { return p.vars[v].name }

// AddConstraint adds the constraint Σ terms  sense  rhs and returns its id.
// Terms referring to the same variable are summed. AddConstraint panics if a
// term references an unknown variable.
func (p *Problem) AddConstraint(name string, terms []Term, sense Sense, rhs float64) ConID {
	merged := mergeTerms(terms, len(p.vars))
	p.cons = append(p.cons, constraint{name: name, terms: merged, sense: sense, rhs: rhs})
	return ConID(len(p.cons) - 1)
}

// ConstraintName reports the name a constraint was created with.
func (p *Problem) ConstraintName(c ConID) string { return p.cons[c].name }

// Objective reports the variable's objective coefficient.
func (p *Problem) Objective(v VarID) float64 { return p.vars[v].obj }

// Constraint reports constraint c's merged terms, sense, and rhs. The
// returned slice aliases the problem's storage and must not be modified;
// it is sorted by variable id.
func (p *Problem) Constraint(c ConID) (terms []Term, sense Sense, rhs float64) {
	con := &p.cons[c]
	return con.terms, con.sense, con.rhs
}

// mergeTerms sums duplicate variables, drops zero coefficients, and checks
// variable ids. The result is sorted by variable id for determinism. Each
// variable's coefficients are summed from +0 in the order given; the sort
// is stable so that this order survives it.
func mergeTerms(terms []Term, nvars int) []Term {
	for _, t := range terms {
		if t.Var < 0 || int(t.Var) >= nvars {
			panic(fmt.Sprintf("lp: term references unknown variable %d (have %d)", t.Var, nvars))
		}
	}
	out := append(make([]Term, 0, len(terms)), terms...)
	slices.SortStableFunc(out, func(a, b Term) int { return cmp.Compare(a.Var, b.Var) })
	k := 0
	for i := 0; i < len(out); {
		v, sum := out[i].Var, 0.0
		for ; i < len(out) && out[i].Var == v; i++ {
			sum += out[i].Coef
		}
		if sum != 0 {
			out[k] = Term{Var: v, Coef: sum}
			k++
		}
	}
	return out[:k]
}

// String renders the problem in a compact human-readable LP format, useful
// in test failures and debug logs.
func (p *Problem) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s ", p.dir)
	first := true
	for i, v := range p.vars {
		if v.obj == 0 {
			continue
		}
		if !first {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%g %s", v.obj, p.varLabel(VarID(i)))
		first = false
	}
	if first {
		b.WriteString("0")
	}
	b.WriteString("\nsubject to\n")
	for _, c := range p.cons {
		b.WriteString("  ")
		if c.name != "" {
			fmt.Fprintf(&b, "%s: ", c.name)
		}
		for i, t := range c.terms {
			if i > 0 {
				b.WriteString(" + ")
			}
			fmt.Fprintf(&b, "%g %s", t.Coef, p.varLabel(t.Var))
		}
		fmt.Fprintf(&b, " %s %g\n", c.sense, c.rhs)
	}
	b.WriteString("bounds\n")
	for i, v := range p.vars {
		if v.lo == 0 && math.IsInf(v.hi, 1) {
			continue
		}
		fmt.Fprintf(&b, "  %g <= %s <= %g\n", v.lo, p.varLabel(VarID(i)), v.hi)
	}
	return b.String()
}

func (p *Problem) varLabel(v VarID) string {
	if n := p.vars[v].name; n != "" {
		return n
	}
	return fmt.Sprintf("x%d", int(v))
}
