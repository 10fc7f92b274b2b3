package lp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"aquavol/internal/budget"
)

// The kernel oracle: the deferred tableau must reproduce the eager
// reference (eager_test.go) bit for bit — status, pivot count, the bits
// of the objective, X, Y and ReducedCost, and the error of a solve
// cancelled after any number of work units.

// diffSolutions describes the first difference between two solutions, or
// returns "" when they are the same bit for bit.
func diffSolutions(got, want *Solution) string {
	if got.Status != want.Status || got.Iterations != want.Iterations {
		return fmt.Sprintf("status %v after %d pivots, want %v after %d",
			got.Status, got.Iterations, want.Status, want.Iterations)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		return fmt.Sprintf("objective %v, want %v", got.Objective, want.Objective)
	}
	for _, v := range []struct {
		name      string
		got, want []float64
	}{{"X", got.X, want.X}, {"Y", got.Y, want.Y}, {"ReducedCost", got.ReducedCost, want.ReducedCost}} {
		if len(v.got) != len(v.want) {
			return fmt.Sprintf("%d values in %s, want %d", len(v.got), v.name, len(v.want))
		}
		for j := range v.got {
			if math.Float64bits(v.got[j]) != math.Float64bits(v.want[j]) {
				return fmt.Sprintf("%s[%d] = %v (%016x), want %v (%016x)", v.name, j,
					v.got[j], math.Float64bits(v.got[j]), v.want[j], math.Float64bits(v.want[j]))
			}
		}
	}
	return ""
}

// checkKernels solves p on both kernels, without a limit, then cancelled
// after k work units for every k up to one past what the unlimited solve
// charged, and then with MaxIterations k for every k below its pivot
// count, and fails t at the first difference. It returns how often the
// deferred kernel's log was flushed.
func checkKernels(t *testing.T, name string, p *Problem) (flushes int) {
	t.Helper()
	meter := budget.New(0)
	got, flushes, err := SolveFlushes(p, Options{Budget: meter})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := solveEager(p, Options{})
	if err != nil {
		t.Fatalf("%s: eager: %v", name, err)
	}
	if d := diffSolutions(got, want); d != "" {
		t.Fatalf("%s: %s\n%v", name, d, p)
	}
	for k := int64(1); k <= meter.Used()+1; k++ {
		got, gerr := p.Solve(Options{Budget: budget.New(0).CancelAfter(k)})
		want, werr := solveEager(p, Options{Budget: budget.New(0).CancelAfter(k)})
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s: cancelled after %d: error %v, want %v", name, k, gerr, werr)
		}
		if gerr == nil {
			if d := diffSolutions(got, want); d != "" {
				t.Fatalf("%s: cancelled after %d: %s", name, k, d)
			}
		}
	}
	for k := 1; k < want.Iterations; k++ {
		got, gerr := p.Solve(Options{MaxIterations: k})
		want, werr := solveEager(p, Options{MaxIterations: k})
		if gerr != nil || werr != nil {
			t.Fatalf("%s: at most %d pivots: %v, %v", name, k, gerr, werr)
		}
		if d := diffSolutions(got, want); d != "" {
			t.Fatalf("%s: at most %d pivots: %s", name, k, d)
		}
	}
	return flushes
}

// kernelLP draws an LP for the kernel oracle around a point inside its
// bounds, so most draws are feasible. Variables are free, lower-bounded,
// boxed or upper-bounded only; rows take every sense, a negative rhs
// (flipped in standard form) about half the time, and now and then a
// scaled copy, which is redundant and, for an equality, leaves an
// artificial basic in a row expelArtificials must clear. One draw in
// twelve draws its rhs at random, so infeasible exits stay covered, and
// an objective pushing an unbounded variable leaves unbounded ones. A
// dense draw fills every coefficient of a larger LP, so its update log
// outgrows the dense tableau.
func kernelLP(r *rand.Rand, dense bool) *Problem {
	dir := Minimize
	if r.Intn(2) == 0 {
		dir = Maximize
	}
	p := NewProblem(dir)
	nv, nc, density := 2+r.Intn(10), 1+r.Intn(10), 0.6
	if dense {
		nv, nc, density = 20+r.Intn(20), 12+r.Intn(12), 1
	}
	wild := r.Intn(12) == 0
	x0 := make([]float64, nv)
	for j := range x0 {
		v := p.AddVariable("")
		lo := float64(r.Intn(11) - 5)
		switch r.Intn(5) {
		case 0:
			x0[j] = float64(r.Intn(6))
		case 1:
			p.SetBounds(v, math.Inf(-1), math.Inf(1))
			x0[j] = lo
		case 2:
			p.SetBounds(v, lo, math.Inf(1))
			x0[j] = lo + float64(r.Intn(6))
		case 3:
			w := r.Intn(8)
			p.SetBounds(v, lo, lo+float64(w))
			x0[j] = lo + float64(r.Intn(w+1))
		case 4:
			p.SetBounds(v, math.Inf(-1), lo)
			x0[j] = lo - float64(r.Intn(6))
		}
		p.SetObjective(v, float64(r.Intn(21)-10)/2)
	}
	for i := 0; i < nc; i++ {
		var terms []Term
		ax := 0.0
		for j := range x0 {
			if r.Float64() >= density {
				continue
			}
			c := float64(r.Intn(19) - 9)
			if c == 0 || r.Intn(2) == 0 {
				c = float64(20*r.Float64()) - 10
			}
			terms = append(terms, Term{VarID(j), c})
			ax += float64(c * x0[j])
		}
		sense := Sense(r.Intn(3))
		rhs := ax
		switch {
		case wild:
			rhs = float64(r.Intn(41) - 20)
		case sense == LE:
			rhs += float64(r.Intn(4))
		case sense == GE:
			rhs -= float64(r.Intn(4))
		}
		p.AddConstraint("", terms, sense, rhs)
		if r.Intn(6) == 0 {
			k := float64(r.Intn(7) - 3)
			if k == 0 {
				k = 2
			}
			scaled := make([]Term, len(terms))
			for q, tm := range terms {
				scaled[q] = Term{tm.Var, k * tm.Coef}
			}
			if k < 0 && sense != EQ {
				sense = GE + LE - sense
			}
			p.AddConstraint("", scaled, sense, k*rhs)
		}
	}
	return p
}

// fixedKernelLPs are the hand-built cases of the kernel oracle: Beale's
// example (Dantzig's rule stalls and Bland's rule takes over), Klee–Minty
// cubes (exponentially many Dantzig pivots), a redundant equality and a
// negative expel pivot.
func fixedKernelLPs() map[string]*Problem {
	lps := map[string]*Problem{
		"beale":              bealeLP(),
		"redundant equality": redundantEqualityLP(),
	}
	for d := 3; d <= 7; d++ {
		lps[fmt.Sprintf("klee-minty %d", d)] = kleeMintyLP(d)
	}

	// x + y = 1 and x = 1: phase 1 pivots x into the first row, which
	// leaves the second row's artificial basic at 0 with −1 in y, so
	// expelArtificials pivots on a negative element and the rhs becomes
	// −0. The second case states both rows negated (rhs −1), which the
	// standard form flips back.
	for _, flipped := range []bool{false, true} {
		neg := NewProblem(Minimize)
		x, y := neg.AddVariable(""), neg.AddVariable("")
		neg.SetObjective(y, 1)
		s := 1.0
		if flipped {
			s = -1
		}
		neg.AddConstraint("", []Term{{x, s}, {y, s}}, EQ, s)
		neg.AddConstraint("", []Term{{x, s}}, EQ, s)
		lps[fmt.Sprintf("negative expel pivot, flipped %v", flipped)] = neg
	}
	return lps
}

func TestKernelsAgreeFixed(t *testing.T) {
	for name, p := range fixedKernelLPs() {
		checkKernels(t, name, p)
	}
}

// TestKernelsAgreeRandom holds the kernels together on seeded random LPs,
// and requires some dense draw to flush the update log. It draws a tenth
// as many under the race detector or -short.
func TestKernelsAgreeRandom(t *testing.T) {
	count, dense := 2000, 40
	if raceEnabled || testing.Short() {
		count, dense = 200, 8
	}
	r := rand.New(rand.NewSource(2008))
	for i := 0; i < count; i++ {
		checkKernels(t, fmt.Sprintf("random LP %d", i), kernelLP(r, false))
	}
	flushes := 0
	for i := 0; i < dense; i++ {
		flushes += checkKernels(t, fmt.Sprintf("dense LP %d", i), kernelLP(r, true))
	}
	if flushes == 0 {
		t.Fatalf("no dense LP flushed the update log")
	}
	t.Logf("%d flushes over %d dense LPs", flushes, dense)
}

// TestSolveConcurrent solves one Problem from several goroutines at once:
// Solve only reads the Problem, one solve takes the spare storage and the
// others allocate their own, and every result is the eager kernel's.
func TestSolveConcurrent(t *testing.T) {
	p := kernelLP(rand.New(rand.NewSource(9)), true)
	want, err := solveEager(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fails := make([]string, 4)
	var wg sync.WaitGroup
	for g := range fails {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20 && fails[g] == ""; k++ {
				got, err := p.Solve(Options{})
				if err != nil {
					fails[g] = err.Error()
				} else {
					fails[g] = diffSolutions(got, want)
				}
			}
		}()
	}
	wg.Wait()
	for g, f := range fails {
		if f != "" {
			t.Errorf("goroutine %d: %s", g, f)
		}
	}
}

func FuzzSolveKernels(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, seed%4 == 3)
	}
	f.Fuzz(func(t *testing.T, seed int64, dense bool) {
		checkKernels(t, fmt.Sprintf("seed %d dense %v", seed, dense), kernelLP(rand.New(rand.NewSource(seed)), dense))
	})
}
