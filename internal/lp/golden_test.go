package lp_test

// The solution goldens pin the simplex bit for bit: the status, the
// pivot count, and the Float64bits of the objective and of every X, Y
// and ReducedCost. They cover every LP the Fig. 6 hierarchy formulates
// on the shipped assays, the benchmark LPs, the ILP glucose search, and
// one digest over a seeded stream of random LPs. A kernel change that
// keeps the pivot sequence keeps every line. Regenerate with
//
//	go test ./internal/lp -run TestSolutionGolden -update

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"aquavol/internal/assays"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/golden"
	"aquavol/internal/ilp"
	"aquavol/internal/lang"
	"aquavol/internal/lp"
)

// renderSolution writes one solution as text, every float as its bits.
func renderSolution(sol *lp.Solution) string {
	var b strings.Builder
	fmt.Fprintf(&b, "status %v iterations %d objective %016x\n",
		sol.Status, sol.Iterations, math.Float64bits(sol.Objective))
	writeBits(&b, "x", sol.X)
	writeBits(&b, "y", sol.Y)
	writeBits(&b, "rc", sol.ReducedCost)
	return b.String()
}

// writeBits writes a vector's float bits, one line per run of equal
// values: "x7 <bits>" for one entry, "x7..x9 <bits>" for a run.
func writeBits(b *strings.Builder, name string, xs []float64) {
	for i := 0; i < len(xs); {
		bits := math.Float64bits(xs[i])
		j := i
		for j+1 < len(xs) && math.Float64bits(xs[j+1]) == bits {
			j++
		}
		if j > i {
			fmt.Fprintf(b, "%s%d..%s%d %016x\n", name, i, name, j, bits)
		} else {
			fmt.Fprintf(b, "%s%d %016x\n", name, i, bits)
		}
		i = j + 1
	}
}

func solveOrFatal(t *testing.T, p *lp.Problem) *lp.Solution {
	t.Helper()
	sol, err := p.Solve(lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func formulate(t *testing.T, g *dag.Graph, cfg core.Config, opts core.FormulateOptions, avail core.Availability) *lp.Problem {
	t.Helper()
	f, err := core.Formulate(g, cfg, opts, avail)
	if err != nil {
		t.Fatal(err)
	}
	return f.Prob
}

// manageLPGraphs returns the DAG of every attempt in which the
// hierarchy solves the LP on src: each attempt whose DAGSolve
// underflows, which is every attempt but a last one that DAGSolve
// plans alone. An assay DAGSolve plans at once still contributes its
// first attempt's graph. Attempt k's graph is the one Manage holds after k
// rounds; SkipLP leaves the transform sequence unchanged (transforms
// are diagnosed from DAGSolve's plan) and only stops the early return
// on an LP success, so rounds 1..k replay the full run's graphs.
func manageLPGraphs(t *testing.T, src string, cfg core.Config) []*dag.Graph {
	t.Helper()
	ep, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.Manage(ep.Graph, cfg, core.ManageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	last := full.Attempts
	if !full.UsedLP {
		last = max(last-1, 1)
	}
	var graphs []*dag.Graph
	for k := 1; k <= last; k++ {
		c := cfg
		c.MaxAttempts = k
		res, _ := core.Manage(ep.Graph, c, core.ManageOptions{SkipLP: true})
		if res == nil || res.Attempts != k {
			t.Fatalf("attempt %d: no graph", k)
		}
		graphs = append(graphs, res.Graph)
	}
	return graphs
}

func TestSolutionGoldenAssays(t *testing.T) {
	cfg := core.DefaultConfig()
	var b strings.Builder

	fanout, err := os.ReadFile("../analysis/testdata/lint/vol002_fanout.asy")
	if err != nil {
		t.Fatal(err)
	}
	sources := []struct{ name, src string }{
		{"enzyme2", assays.EnzymeSource(2)},
		{"enzyme3", assays.EnzymeSource(3)},
		{"enzyme4", assays.EnzymeSource(4)},
		{"enzyme5", assays.EnzymeSource(5)},
		{"glucose", assays.GlucoseSource},
		{"vol002_fanout", string(fanout)},
	}
	for _, s := range sources {
		for k, g := range manageLPGraphs(t, s.src, cfg) {
			p := formulate(t, g, cfg, core.FormulateOptions{}, core.StaticAvailability(cfg))
			golden.Section(&b, fmt.Sprintf("manage %s attempt %d", s.name, k+1), renderSolution(solveOrFatal(t, p)))
		}
	}

	extra := core.FormulateOptions{FlowConservation: true, EqualOutputs: true}
	dags := []struct {
		name string
		g    *dag.Graph
	}{
		{"EnzymeDAG(4)", assays.EnzymeDAG(4)},
		{"EnzymeDAG(5)", assays.EnzymeDAG(5)},
		{"GlucoseDAG", assays.GlucoseDAG()},
	}
	for _, d := range dags {
		golden.Section(&b, "bench "+d.name, renderSolution(solveOrFatal(t, formulate(t, d.g, cfg, core.FormulateOptions{}, nil))))
		golden.Section(&b, "bench "+d.name+" extra", renderSolution(solveOrFatal(t, formulate(t, d.g, cfg, extra, nil))))
	}

	unit := core.Config{MaxCapacity: cfg.MaxCapacity / cfg.LeastCount, LeastCount: 1, OutputSkew: cfg.OutputSkew}
	res, err := ilp.Solve(formulate(t, assays.GlucoseDAG(), unit, core.FormulateOptions{}, nil), ilp.Options{MaxNodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	var ib strings.Builder
	fmt.Fprintf(&ib, "status %v incumbent %v nodes %d objective %016x\n",
		res.Status, res.HasIncumbent, res.Nodes, math.Float64bits(res.Objective))
	writeBits(&ib, "x", res.X)
	golden.Section(&b, "ilp GlucoseDAG unit", ib.String())

	golden.Check(t, "testdata/golden/assays.golden", b.String())
}

// randomLP draws a small LP with mixed bounds (free, lower-bounded,
// boxed and upper-bounded-only variables), every constraint sense, and
// both objective directions. Most draws are feasible and bounded: the
// rows are built around a point inside the bounds, with zero slack on
// a third of them for degeneracy, and each variable the objective
// pushes toward an infinite bound gets a row capping it. One draw in
// twenty skips both, so infeasible and unbounded exits stay covered.
func randomLP(r *rand.Rand) *lp.Problem {
	dir := lp.Minimize
	if r.Intn(2) == 0 {
		dir = lp.Maximize
	}
	wild := r.Intn(20) == 0
	p := lp.NewProblem(dir)
	nv, nc := 2+r.Intn(12), 1+r.Intn(12)
	x0 := make([]float64, nv)
	for j := range x0 {
		v := p.AddVariable("")
		lo := float64(r.Intn(11) - 5)
		lower, upper := true, false
		switch r.Intn(5) {
		case 0:
			x0[j] = float64(r.Intn(6))
		case 1:
			p.SetBounds(v, math.Inf(-1), math.Inf(1))
			x0[j] = lo
			lower = false
		case 2:
			p.SetBounds(v, lo, math.Inf(1))
			x0[j] = lo + float64(r.Intn(6))
		case 3:
			w := 1 + r.Intn(10)
			p.SetBounds(v, lo, lo+float64(w))
			x0[j] = lo + float64(r.Intn(w+1))
			upper = true
		case 4:
			p.SetBounds(v, math.Inf(-1), lo)
			x0[j] = lo - float64(r.Intn(6))
			lower, upper = false, true
		}
		obj := float64(r.Intn(21)-10) / 2
		p.SetObjective(v, obj)
		if wild {
			continue
		}
		up := (obj > 0) == (dir == lp.Maximize)
		switch {
		case obj != 0 && up && !upper:
			p.AddConstraint("", []lp.Term{{Var: v, Coef: 1}}, lp.LE, x0[j]+float64(r.Intn(6)))
		case obj != 0 && !up && !lower:
			p.AddConstraint("", []lp.Term{{Var: v, Coef: 1}}, lp.GE, x0[j]-float64(r.Intn(6)))
		}
	}
	for i := 0; i < nc; i++ {
		var terms []lp.Term
		ax := 0.0
		for j := 0; j < nv; j++ {
			if r.Intn(3) == 0 {
				continue
			}
			c := float64(r.Intn(19) - 9)
			if r.Intn(2) == 0 {
				c = float64(20*r.Float64()) - 10
			}
			terms = append(terms, lp.Term{Var: lp.VarID(j), Coef: c})
			ax += float64(c * x0[j])
		}
		sense := lp.Sense(r.Intn(3))
		slack := 0.0
		if r.Intn(3) != 0 {
			slack = float64(r.Intn(5)) + float64(r.Float64())
		}
		rhs := ax
		switch {
		case wild:
			rhs = float64(r.Intn(41) - 20)
		case sense == lp.LE:
			rhs += slack
		case sense == lp.GE:
			rhs -= slack
		}
		p.AddConstraint("", terms, sense, rhs)
	}
	return p
}

// digestSolution feeds a solution's status, pivot count and float bits
// into h, mapping a −0 in X to +0. It reports whether X held a −0.
func digestSolution(h hash.Hash, sol *lp.Solution) (negZero bool) {
	word := func(u uint64) { _ = binary.Write(h, binary.LittleEndian, u) }
	floats := func(xs []float64, mapNegZero bool) {
		word(uint64(len(xs)))
		for _, x := range xs {
			if mapNegZero && x == 0 && math.Signbit(x) {
				negZero = true
				x = 0
			}
			word(math.Float64bits(x))
		}
	}
	word(uint64(sol.Status))
	word(uint64(sol.Iterations))
	word(math.Float64bits(sol.Objective))
	floats(sol.X, true)
	floats(sol.Y, false)
	floats(sol.ReducedCost, false)
	return negZero
}

// TestSolutionGoldenRandom digests 30 000 seeded random LPs solved in
// one process, with an Enzyme-size LP after every 5 000 so that any
// solver storage reused from a large solve and not cleared before a
// small one shows up in the digest. The only tolerated deviation is the
// sign of a zero X; the number of LPs carrying a −0 is logged.
func TestSolutionGoldenRandom(t *testing.T) {
	const count, every = 30000, 5000
	enzyme := formulate(t, assays.EnzymeDAG(4), core.DefaultConfig(), core.FormulateOptions{}, nil)
	r := rand.New(rand.NewSource(20080607))
	h := sha256.New()
	statuses := map[lp.Status]int{}
	negZero := 0
	for i := 1; i <= count; i++ {
		sol := solveOrFatal(t, randomLP(r))
		statuses[sol.Status]++
		if digestSolution(h, sol) {
			negZero++
		}
		if i%every == 0 {
			digestSolution(h, solveOrFatal(t, enzyme))
		}
	}
	t.Logf("%d of %d random LPs carry a -0 in X", negZero, count)
	var b strings.Builder
	fmt.Fprintf(&b, "random LPs %d, Enzyme-size LP after every %d\n", count, every)
	for st := lp.Optimal; st <= lp.IterationLimit; st++ {
		fmt.Fprintf(&b, "%v %d\n", st, statuses[st])
	}
	fmt.Fprintf(&b, "sha256 %x\n", h.Sum(nil))
	golden.Check(t, "testdata/golden/random.golden", b.String())
}
