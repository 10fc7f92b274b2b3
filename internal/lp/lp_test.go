package lp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// eps aliases the exported solution-value tolerance so every comparison in
// this file follows the documented tolerance ladder in tol.go.
const eps = SolutionTol

func approx(a, b float64) bool { return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b)) }

func solveOrFatal(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := p.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return s
}

// Classic 2-variable maximization with a known optimum.
func TestMaximizeBasic(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable("x")
	y := p.AddVariable("y")
	p.SetObjective(x, 3)
	p.SetObjective(y, 5)
	p.AddConstraint("c1", []Term{{x, 1}}, LE, 4)
	p.AddConstraint("c2", []Term{{y, 2}}, LE, 12)
	p.AddConstraint("c3", []Term{{x, 3}, {y, 2}}, LE, 18)
	s := solveOrFatal(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if !approx(s.Objective, 36) || !approx(s.Value(x), 2) || !approx(s.Value(y), 6) {
		t.Fatalf("got obj=%v x=%v y=%v, want 36, 2, 6", s.Objective, s.Value(x), s.Value(y))
	}
}

// Minimization with ≥ constraints exercises phase 1.
func TestMinimizeWithGE(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable("x")
	y := p.AddVariable("y")
	p.SetObjective(x, 12)
	p.SetObjective(y, 16)
	p.AddConstraint("c1", []Term{{x, 1}, {y, 2}}, GE, 40)
	p.AddConstraint("c2", []Term{{x, 1}, {y, 1}}, GE, 30)
	s := solveOrFatal(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	// Optimum at x=20, y=10: 12*20+16*10 = 400.
	if !approx(s.Objective, 400) {
		t.Fatalf("objective = %v, want 400", s.Objective)
	}
}

func TestEqualityConstraints(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable("x")
	y := p.AddVariable("y")
	z := p.AddVariable("z")
	p.SetObjective(x, 1)
	p.SetObjective(y, 2)
	p.SetObjective(z, 3)
	p.AddConstraint("sum", []Term{{x, 1}, {y, 1}, {z, 1}}, EQ, 10)
	p.AddConstraint("cap", []Term{{z, 1}}, LE, 4)
	s := solveOrFatal(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	// Best: z=4, y=6, x=0 → 0+12+12 = 24.
	if !approx(s.Objective, 24) {
		t.Fatalf("objective = %v, want 24", s.Objective)
	}
	if !approx(s.Value(x)+s.Value(y)+s.Value(z), 10) {
		t.Fatalf("equality violated: %v + %v + %v != 10", s.Value(x), s.Value(y), s.Value(z))
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable("x")
	p.SetObjective(x, 1)
	p.AddConstraint("lo", []Term{{x, 1}}, GE, 5)
	p.AddConstraint("hi", []Term{{x, 1}}, LE, 3)
	s := solveOrFatal(t, p)
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable("x")
	y := p.AddVariable("y")
	p.SetObjective(x, 1)
	p.AddConstraint("c", []Term{{x, 1}, {y, -1}}, LE, 1)
	s := solveOrFatal(t, p)
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestUnboundedNoConstraints(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable("x")
	p.SetObjective(x, 2)
	s := solveOrFatal(t, p)
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestVariableBoundsShift(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable("x")
	y := p.AddVariable("y")
	p.SetBounds(x, 2, 7)
	p.SetBounds(y, 1, math.Inf(1))
	p.SetObjective(x, 1)
	p.SetObjective(y, 1)
	p.AddConstraint("c", []Term{{x, 1}, {y, 1}}, GE, 5)
	s := solveOrFatal(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if !approx(s.Objective, 5) {
		t.Fatalf("objective = %v, want 5", s.Objective)
	}
	if s.Value(x) < 2-eps || s.Value(x) > 7+eps || s.Value(y) < 1-eps {
		t.Fatalf("bounds violated: x=%v y=%v", s.Value(x), s.Value(y))
	}
}

func TestUpperBoundBinds(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable("x")
	p.SetBounds(x, 0, 3.5)
	p.SetObjective(x, 1)
	s := solveOrFatal(t, p)
	if s.Status != Optimal || !approx(s.Value(x), 3.5) {
		t.Fatalf("got %v x=%v, want optimal x=3.5", s.Status, s.Value(x))
	}
}

func TestFreeVariable(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable("x")
	p.SetBounds(x, math.Inf(-1), math.Inf(1))
	p.SetObjective(x, 1)
	p.AddConstraint("lo", []Term{{x, 1}}, GE, -4)
	s := solveOrFatal(t, p)
	if s.Status != Optimal || !approx(s.Value(x), -4) {
		t.Fatalf("got %v x=%v, want optimal x=-4", s.Status, s.Value(x))
	}
}

func TestNegativeLowerBound(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable("x")
	p.SetBounds(x, -10, 10)
	p.SetObjective(x, 3)
	s := solveOrFatal(t, p)
	if s.Status != Optimal || !approx(s.Value(x), -10) {
		t.Fatalf("got %v x=%v, want optimal x=-10", s.Status, s.Value(x))
	}
}

// bealeLP is Beale's classic cycling example: Dantzig's rule cycles on
// it until the Bland fallback takes over.
func bealeLP() *Problem {
	p := NewProblem(Minimize)
	x1 := p.AddVariable("x1")
	x2 := p.AddVariable("x2")
	x3 := p.AddVariable("x3")
	x4 := p.AddVariable("x4")
	p.SetObjective(x1, -0.75)
	p.SetObjective(x2, 150)
	p.SetObjective(x3, -0.02)
	p.SetObjective(x4, 6)
	p.AddConstraint("c1", []Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	p.AddConstraint("c2", []Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	p.AddConstraint("c3", []Term{{x3, 1}}, LE, 1)
	return p
}

// Beale's classic cycling example must terminate (Bland fallback).
func TestBealeCyclingTerminates(t *testing.T) {
	s := solveOrFatal(t, bealeLP())
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if !approx(s.Objective, -0.05) {
		t.Fatalf("objective = %v, want -0.05", s.Objective)
	}
}

// redundantEqualityLP has two equalities on one hyperplane: phase 1 ends
// with an artificial basic in a row that is zero over the real columns,
// which expelArtificials clears.
func redundantEqualityLP() *Problem {
	p := NewProblem(Maximize)
	x := p.AddVariable("x")
	y := p.AddVariable("y")
	p.SetObjective(x, 1)
	p.SetObjective(y, 1)
	p.AddConstraint("e1", []Term{{x, 1}, {y, 1}}, EQ, 4)
	p.AddConstraint("e2", []Term{{x, 2}, {y, 2}}, EQ, 8) // same hyperplane
	p.AddConstraint("cap", []Term{{x, 1}}, LE, 3)
	return p
}

// Degenerate constraints (redundant equalities) should not break phase 1's
// artificial expulsion.
func TestRedundantEqualities(t *testing.T) {
	s := solveOrFatal(t, redundantEqualityLP())
	if s.Status != Optimal || !approx(s.Objective, 4) {
		t.Fatalf("got %v obj=%v, want optimal 4", s.Status, s.Objective)
	}
}

func TestZeroObjectiveFeasibilityOnly(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable("x")
	y := p.AddVariable("y")
	p.AddConstraint("c1", []Term{{x, 1}, {y, 1}}, EQ, 2)
	p.AddConstraint("c2", []Term{{x, 1}, {y, -1}}, EQ, 0)
	s := solveOrFatal(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if !approx(s.Value(x), 1) || !approx(s.Value(y), 1) {
		t.Fatalf("x=%v y=%v, want 1,1", s.Value(x), s.Value(y))
	}
}

func TestNaNRejected(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable("x")
	p.AddConstraint("c", []Term{{x, math.NaN()}}, LE, 1)
	if _, err := p.Solve(Options{}); err == nil {
		t.Fatal("expected error for NaN coefficient")
	}
}

func TestIterationLimit(t *testing.T) {
	p := NewProblem(Maximize)
	vars := make([]VarID, 12)
	for i := range vars {
		vars[i] = p.AddVariable("")
		p.SetObjective(vars[i], float64(i+1))
	}
	for i := range vars {
		p.AddConstraint("", []Term{{vars[i], 1}}, LE, float64(i+1))
	}
	s, err := p.Solve(Options{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != IterationLimit {
		t.Fatalf("status = %v, want iteration-limit", s.Status)
	}
}

// kleeMintyLP is the Klee–Minty cube in d dimensions, the worst case for
// Dantzig pivoting: its optimum is 5^d.
func kleeMintyLP(d int) *Problem {
	p := NewProblem(Maximize)
	vars := make([]VarID, d)
	for i := 0; i < d; i++ {
		vars[i] = p.AddVariable("")
	}
	for i := 0; i < d; i++ {
		p.SetObjective(vars[i], math.Pow(2, float64(d-1-i)))
	}
	for i := 0; i < d; i++ {
		terms := []Term{{vars[i], 1}}
		for j := 0; j < i; j++ {
			terms = append(terms, Term{vars[j], math.Pow(2, float64(i-j+1))})
		}
		p.AddConstraint("", terms, LE, math.Pow(5, float64(i+1)))
	}
	return p
}

// Klee–Minty cube in 4 dimensions: worst case for Dantzig pivoting but must
// still reach the known optimum.
func TestKleeMinty(t *testing.T) {
	const d = 4
	s := solveOrFatal(t, kleeMintyLP(d))
	if s.Status != Optimal || !approx(s.Objective, math.Pow(5, d)) {
		t.Fatalf("got %v obj=%v, want optimal %v", s.Status, s.Objective, math.Pow(5, d))
	}
}

func TestExactMatchesFloatBasic(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable("x")
	y := p.AddVariable("y")
	p.SetObjective(x, 3)
	p.SetObjective(y, 5)
	p.AddConstraint("c1", []Term{{x, 1}}, LE, 4)
	p.AddConstraint("c2", []Term{{y, 2}}, LE, 12)
	p.AddConstraint("c3", []Term{{x, 3}, {y, 2}}, LE, 18)
	sf := solveOrFatal(t, p)
	se, err := p.SolveExact()
	if err != nil {
		t.Fatal(err)
	}
	if se.Status != Optimal || !approx(se.Objective, sf.Objective) {
		t.Fatalf("exact: %v obj=%v, float obj=%v", se.Status, se.Objective, sf.Objective)
	}
}

func TestExactInfeasible(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable("x")
	p.AddConstraint("lo", []Term{{x, 1}}, GE, 5)
	p.AddConstraint("hi", []Term{{x, 1}}, LE, 3)
	s, err := p.SolveExact()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

// randomProblem builds a random LP guaranteed feasible by construction:
// generate a random point x0 ≥ 0 and random rows a, then set rhs so that
// a·x0 satisfies each constraint with slack. Objective is maximization of a
// random nonnegative cost over LE rows plus box bounds, so it is bounded.
func randomProblem(r *rand.Rand, nv, nc int) (*Problem, []float64) {
	return randomProblemEQ(r, nv, nc, true)
}

// randomProblemEQ is randomProblem with equality constraints optionally
// disabled. Exact-vs-float comparison tests disable them: two equalities
// derived from the same seed point are consistent only up to float64
// rounding, which the exact solver legitimately reports as infeasible.
func randomProblemEQ(r *rand.Rand, nv, nc int, allowEQ bool) (*Problem, []float64) {
	p := NewProblem(Maximize)
	x0 := make([]float64, nv)
	vars := make([]VarID, nv)
	for j := 0; j < nv; j++ {
		vars[j] = p.AddVariable("")
		x0[j] = 10 * r.Float64()
		p.SetBounds(vars[j], 0, 50)
		p.SetObjective(vars[j], r.Float64())
	}
	for i := 0; i < nc; i++ {
		terms := make([]Term, 0, nv)
		dot := 0.0
		for j := 0; j < nv; j++ {
			if r.Float64() < 0.4 {
				continue
			}
			c := 2*r.Float64() - 0.5 // mostly positive, some negative
			terms = append(terms, Term{vars[j], c})
			dot += c * x0[j]
		}
		if len(terms) == 0 {
			continue
		}
		kind := r.Intn(3)
		if !allowEQ && kind == 2 {
			kind = r.Intn(2)
		}
		switch kind {
		case 0:
			p.AddConstraint("", terms, LE, dot+r.Float64()*5)
		case 1:
			p.AddConstraint("", terms, GE, dot-r.Float64()*5)
		case 2:
			p.AddConstraint("", terms, EQ, dot)
		}
	}
	return p, x0
}

// feasibleAt verifies that x satisfies every constraint and bound of p to
// within tolerance.
func feasibleAt(p *Problem, x []float64, tol float64) bool {
	for j, v := range p.vars {
		if x[j] < v.lo-tol || x[j] > v.hi+tol {
			return false
		}
	}
	for _, c := range p.cons {
		dot := 0.0
		for _, t := range c.terms {
			dot += t.Coef * x[t.Var]
		}
		switch c.sense {
		case LE:
			if dot > c.rhs+tol {
				return false
			}
		case GE:
			if dot < c.rhs-tol {
				return false
			}
		case EQ:
			if math.Abs(dot-c.rhs) > tol {
				return false
			}
		}
	}
	return true
}

// Property: on random feasible bounded LPs the solver returns a feasible
// point whose objective is at least as good as the seed point's.
func TestQuickRandomFeasible(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nv := 2 + r.Intn(6)
		nc := 1 + r.Intn(8)
		p, x0 := randomProblem(r, nv, nc)
		s, err := p.Solve(Options{})
		if err != nil {
			return false
		}
		if s.Status != Optimal {
			// By construction x0 is feasible and bounds cap the objective.
			return false
		}
		if !feasibleAt(p, s.X, FeasCheckTol) {
			return false
		}
		obj0 := 0.0
		for j := range x0 {
			obj0 += p.vars[j].obj * x0[j]
		}
		return s.Objective >= obj0-SolutionTol
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: float64 simplex and exact rational simplex agree on objective
// value for random small problems.
func TestQuickExactAgreement(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nv := 2 + r.Intn(4)
		nc := 1 + r.Intn(5)
		p, _ := randomProblemEQ(r, nv, nc, false)
		sf, err := p.Solve(Options{})
		if err != nil {
			return false
		}
		se, err := p.SolveExact()
		if err != nil {
			return false
		}
		if sf.Status != se.Status {
			return false
		}
		if sf.Status != Optimal {
			return true
		}
		return approx(sf.Objective, se.Objective)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestProblemString(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable("x")
	p.SetObjective(x, 2)
	p.SetBounds(x, 1, 5)
	p.AddConstraint("cap", []Term{{x, 1}}, LE, 4)
	s := p.String()
	for _, want := range []string{"max", "cap:", "<= 4", "1 <= x <= 5"} {
		if !contains(s, want) {
			t.Fatalf("String() missing %q in:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestMergeTermsDuplicates(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable("x")
	p.SetObjective(x, 1)
	p.AddConstraint("c", []Term{{x, 1}, {x, 2}}, GE, 6)
	s := solveOrFatal(t, p)
	if s.Status != Optimal || !approx(s.Value(x), 2) {
		t.Fatalf("got %v x=%v, want optimal x=2 (3x >= 6)", s.Status, s.Value(x))
	}
}

func TestBoundsPanicOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inverted bounds")
		}
	}()
	p := NewProblem(Minimize)
	x := p.AddVariable("x")
	p.SetBounds(x, 5, 1)
}

// mergeTermsMap is mergeTerms as first written, accumulating in a map and
// sorting with sort.Slice; it is kept as mergeTerms' oracle.
func mergeTermsMap(terms []Term, nvars int) []Term {
	acc := make(map[VarID]float64, len(terms))
	for _, t := range terms {
		if t.Var < 0 || int(t.Var) >= nvars {
			panic(fmt.Sprintf("lp: term references unknown variable %d (have %d)", t.Var, nvars))
		}
		acc[t.Var] += t.Coef
	}
	out := make([]Term, 0, len(acc))
	for v, c := range acc {
		if c != 0 {
			out = append(out, Term{Var: v, Coef: c})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Var < out[j].Var })
	return out
}

// Property: mergeTerms returns the map version's terms bit for bit on
// random term lists with duplicates, zeros, −0, cancelling sums and
// unsorted ids, leaves its input alone, and panics alike on a bad id.
func TestMergeTermsMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for n := 0; n < 20000; n++ {
		nvars := 1 + r.Intn(12)
		terms := make([]Term, r.Intn(24))
		for i := range terms {
			var c float64
			switch r.Intn(6) {
			case 0:
				c = 0
			case 1:
				c = math.Copysign(0, -1)
			case 2:
				c = float64(r.Intn(7) - 3)
			default:
				c = r.NormFloat64() * math.Pow(10, float64(r.Intn(9)-4))
			}
			terms[i] = Term{VarID(r.Intn(nvars)), c}
		}
		input := append([]Term(nil), terms...)
		got, want := mergeTerms(terms, nvars), mergeTermsMap(terms, nvars)
		if len(got) != len(want) {
			t.Fatalf("%v: %d terms, want %d", terms, len(got), len(want))
		}
		for i := range got {
			if got[i].Var != want[i].Var || math.Float64bits(got[i].Coef) != math.Float64bits(want[i].Coef) {
				t.Fatalf("%v: term %d is %v, want %v", terms, i, got[i], want[i])
			}
		}
		for i := range terms {
			if terms[i].Var != input[i].Var || math.Float64bits(terms[i].Coef) != math.Float64bits(input[i].Coef) {
				t.Fatalf("mergeTerms changed its input: %v, was %v", terms, input)
			}
		}
	}
	panicOf := func(merge func([]Term, int) []Term) (msg any) {
		defer func() { msg = recover() }()
		merge([]Term{{0, 1}, {3, 2}, {-1, 1}}, 2)
		return nil
	}
	if got, want := panicOf(mergeTerms), panicOf(mergeTermsMap); got == nil || got != want {
		t.Fatalf("panic %v, want %v", got, want)
	}
}
