package lp

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"aquavol/internal/budget"
)

// Status is the outcome of a solve.
type Status int

const (
	// Optimal means an optimal feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective can be improved without limit.
	Unbounded
	// IterationLimit means the solver hit Options.MaxIterations.
	IterationLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Options tunes the simplex solver. The zero value selects sensible
// defaults for every field.
type Options struct {
	// MaxIterations bounds the total pivots across both phases.
	// 0 selects 200*(rows+cols)+1000.
	MaxIterations int
	// Budget, when non-nil, is charged one work unit per simplex pivot
	// and can stop the solve cooperatively. Unlike MaxIterations (which
	// terminates with Status IterationLimit), a budget stop is returned
	// as a typed error wrapping one of the budget sentinels, so callers
	// can tell bounded truncation from caller cancellation.
	Budget *budget.Meter
}

func (o Options) withDefaults(m, n int) Options {
	if o.MaxIterations == 0 {
		o.MaxIterations = 200*(m+n) + 1000
	}
	return o
}

// Solution is the result of a solve.
type Solution struct {
	// Status reports how the solve terminated. X and Objective are only
	// meaningful when Status is Optimal.
	Status Status
	// Objective is the objective value at X, in the problem's original
	// direction (i.e. not negated for maximization).
	Objective float64
	// X holds one value per problem variable, indexed by VarID.
	X []float64
	// Y holds one dual value (shadow price) per problem constraint,
	// indexed by ConID, in the problem's original orientation: Y[i] is
	// ∂Objective/∂rhs_i at the optimum. Filled only when Status is
	// Optimal; nil otherwise (and always nil from SolveExact, which
	// reports no basis). Duals are not unique on degenerate problems
	// (e.g. redundant constraints); the basis the solver lands on picks
	// one valid certificate.
	Y []float64
	// ReducedCost holds one reduced cost per problem variable, indexed by
	// VarID: ReducedCost[j] = obj_j − Σ_i Y[i]·a_ij over the problem's
	// constraints. Together with Y it forms the optimality certificate
	// verified by internal/certify. Filled only when Status is Optimal.
	ReducedCost []float64
	// Iterations is the total simplex pivots performed across both phases.
	Iterations int
}

// Value returns the solution value of variable v.
func (s *Solution) Value(v VarID) float64 { return s.X[v] }

// ErrBadProblem reports a structurally invalid problem (e.g. NaN inputs).
var ErrBadProblem = errors.New("lp: invalid problem")

// column maps a simplex column back to a problem variable.
type column struct {
	orig VarID   // originating variable
	sign float64 // +1 for x⁺ part, -1 for x⁻ part
}

// Solve runs two-phase primal simplex and returns the solution. An error is
// returned only for structurally invalid problems or a tripped
// Options.Budget (a typed budget stop; match with budget.IsStop);
// infeasibility and unboundedness are reported through Solution.Status.
//
// Solve is certified parallel-safe: distinct Problems may be solved
// concurrently. (Solving one Problem from two goroutines still races on
// the receiver itself, as with any mutable value.)
//
//fluidvet:parallelsafe
func (p *Problem) Solve(opts Options) (*Solution, error) {
	for _, v := range p.vars {
		if math.IsNaN(v.lo) || math.IsNaN(v.hi) || math.IsNaN(v.obj) {
			return nil, fmt.Errorf("%w: NaN in variable %q", ErrBadProblem, v.name)
		}
	}
	for _, c := range p.cons {
		if math.IsNaN(c.rhs) {
			return nil, fmt.Errorf("%w: NaN rhs in constraint %q", ErrBadProblem, c.name)
		}
		for _, t := range c.terms {
			if math.IsNaN(t.Coef) {
				return nil, fmt.Errorf("%w: NaN coefficient in constraint %q", ErrBadProblem, c.name)
			}
		}
	}

	// Build structural columns. Each variable with a finite lower bound is
	// shifted (x = lo + x'); free variables split into two columns.
	var cols []column
	colOf := make([]int, len(p.vars)) // first column of each variable
	shift := make([]float64, len(p.vars))
	for j, v := range p.vars {
		colOf[j] = len(cols)
		if math.IsInf(v.lo, -1) {
			cols = append(cols, column{VarID(j), 1}, column{VarID(j), -1})
		} else {
			shift[j] = v.lo
			cols = append(cols, column{VarID(j), 1})
		}
	}
	nStruct := len(cols)

	// Rows: user constraints plus internal upper-bound rows, each
	// normalized to b ≥ 0. flip remembers which rows were negated so
	// dual values can be mapped back to the original row orientation
	// after the solve.
	type row struct {
		sense Sense
		rhs   float64
		flip  bool
	}
	rows := make([]row, 0, len(p.cons))
	nSlack, nArt := 0, 0
	addRow := func(sense Sense, rhs float64) {
		r := row{sense: sense, rhs: rhs}
		if rhs < 0 {
			r.flip, r.rhs = true, -rhs
			switch sense {
			case LE:
				r.sense = GE
			case GE:
				r.sense = LE
			}
		}
		switch r.sense {
		case LE:
			nSlack++
		case GE:
			nSlack++ // surplus
			nArt++
		case EQ:
			nArt++
		}
		rows = append(rows, r)
	}
	for _, c := range p.cons {
		rhs := c.rhs
		for _, tm := range c.terms {
			if !math.IsInf(p.vars[tm.Var].lo, -1) {
				rhs -= tm.Coef * shift[tm.Var]
			}
		}
		addRow(c.sense, rhs)
	}
	for _, v := range p.vars {
		switch {
		case math.IsInf(v.hi, 1):
		case math.IsInf(v.lo, -1):
			addRow(LE, v.hi)
		default:
			addRow(LE, v.hi-v.lo)
		}
	}
	m := len(rows)
	opt := opts.withDefaults(m, nStruct)

	n := nStruct + nSlack + nArt // total columns (rhs stored separately)
	t := newTableau(m, n, n-nArt)
	defer releaseTableau(t)
	// Fill the structural columns straight from the sparse terms: the
	// merged terms name each variable once, so every entry is written
	// once, negated on a flipped row.
	set := func(i, j int, coef float64) {
		if rows[i].flip {
			coef = -coef
		}
		t.a[i*t.stride+j] = coef
	}
	for i, c := range p.cons {
		for _, tm := range c.terms {
			ci := colOf[tm.Var]
			set(i, ci, tm.Coef)
			if math.IsInf(p.vars[tm.Var].lo, -1) {
				set(i, ci+1, -tm.Coef)
			}
		}
	}
	ub := len(p.cons) // the next upper-bound row
	for j, v := range p.vars {
		if math.IsInf(v.hi, 1) {
			continue
		}
		set(ub, colOf[j], 1)
		if math.IsInf(v.lo, -1) {
			set(ub, colOf[j]+1, -1)
		}
		ub++
	}
	// idCol[i] is the identity column of row i — the auxiliary column
	// (slack for LE, artificial for GE/EQ) whose only nonzero entry is a
	// +1 in row i and whose phase-2 objective coefficient is zero. At
	// phase-2 optimality, -cost[idCol[i]] is therefore exactly the
	// internal dual value of row i.
	idCol := make([]int, m)
	slackAt, artAt := nStruct, nStruct+nSlack
	for i, r := range rows {
		base := i * t.stride
		t.a[base+n] = r.rhs
		switch r.sense {
		case LE:
			t.a[base+slackAt] = 1
			t.basis[i] = slackAt
			idCol[i] = slackAt
			slackAt++
		case GE:
			t.a[base+slackAt] = -1
			slackAt++
			t.a[base+artAt] = 1
			t.basis[i] = artAt
			idCol[i] = artAt
			artAt++
		case EQ:
			t.a[base+artAt] = 1
			t.basis[i] = artAt
			idCol[i] = artAt
			artAt++
		}
	}

	sol := &Solution{X: make([]float64, len(p.vars))}

	// Phase 1: minimize the sum of artificial variables. The reduced
	// costs are minus the column sums over the artificial-basic rows,
	// accumulated row by row (in row order, as a column scan would).
	if nArt > 0 {
		for i := 0; i < m; i++ {
			if t.basis[i] < t.artLo {
				continue
			}
			for j, v := range t.row(i) {
				t.cost[j] += v
			}
		}
		for j, c := range t.cost {
			t.cost[j] = -c
		}
		// Artificial columns themselves have phase-1 cost 1; their reduced
		// cost is 1 - (column sum over artificial-basic rows). For the
		// identity artificial columns this is exactly 0.
		for j := t.artLo; j < n; j++ {
			t.cost[j] += 1
		}
		st, err := t.iterate(&sol.Iterations, opt, true)
		if err != nil {
			return nil, err
		}
		if st == IterationLimit {
			sol.Status = IterationLimit
			return sol, nil
		}
		if -t.cost[n] > FeasTol { // phase-1 objective = -cost[n]
			sol.Status = Infeasible
			return sol, nil
		}
		t.expelArtificials()
	}

	// Phase 2: original objective. Build reduced costs from the current
	// basis, cost[j] = c_j − Σ_i c_{basis(i)}·T[i][j], row by row over the
	// cost-bearing basic rows (in row order, as a column scan would).
	sign := 1.0
	if p.dir == Maximize {
		sign = -1
	}
	structCost := func(j int) float64 {
		if j >= nStruct {
			return 0
		}
		return sign * p.vars[cols[j].orig].obj * cols[j].sign
	}
	for j := range t.cost {
		t.cost[j] = structCost(j)
	}
	for i := 0; i < m; i++ {
		if cb := structCost(t.basis[i]); cb != 0 {
			for j, v := range t.row(i) {
				t.cost[j] -= cb * v
			}
		}
	}

	st, err := t.iterate(&sol.Iterations, opt, false)
	if err != nil {
		return nil, err
	}
	switch st {
	case IterationLimit, Unbounded:
		sol.Status = st
		return sol, nil
	}

	// Extract the solution, mapping columns back through shifts and splits.
	colVal := make([]float64, n)
	for i := 0; i < m; i++ {
		v := t.a[i*t.stride+n]
		if v < 0 && v > -FeasTol {
			v = 0
		}
		colVal[t.basis[i]] = v
	}
	for j := range p.vars {
		x := shift[j]
		ci := colOf[j]
		x += colVal[ci]
		if math.IsInf(p.vars[j].lo, -1) {
			x -= colVal[ci+1]
			x -= shift[j] // no shift applied for free vars
		}
		sol.X[j] = x
	}
	obj := 0.0
	for j, v := range p.vars {
		obj += v.obj * sol.X[j]
	}
	sol.Objective = obj
	sol.Status = Optimal
	// Dual extraction. After phase 2, cost[idCol[i]] is the reduced cost
	// of row i's identity column; since that column is a unit vector with
	// zero objective coefficient, its reduced cost is −ŷ_i, the internal
	// (minimization-form, b≥0-normalized) dual of row i. Map back to the
	// problem's orientation: undo the row flip (σ = −1 if the row was
	// negated) and the min/max sign. Only the first len(p.cons) rows are
	// user constraints — the trailing upper-bound rows stay internal.
	//
	// This holds for EVERY row, including rows zeroed as redundant by
	// expelArtificials: pivots keep the whole cost row of the form
	// cost[j] = c_j − φ(A_j) for one linear functional φ, so reading φ at
	// the identity columns recovers a dual vector that satisfies the same
	// identities the simplex exit test guarantees for structural columns.
	// A numerically-redundant row can carry a genuinely nonzero dual
	// weight this way (the basis may express an active row's multiplier
	// through the dependent one); forcing it to 0 would break the
	// reduced-cost identity on instances with near-dependent rows.
	sol.Y = make([]float64, len(p.cons))
	for i := range p.cons {
		yhat := -t.cost[idCol[i]]
		if rows[i].flip {
			yhat = -yhat
		}
		sol.Y[i] = sign * yhat
	}
	sol.ReducedCost = make([]float64, len(p.vars))
	for j, v := range p.vars {
		sol.ReducedCost[j] = v.obj
	}
	for i, c := range p.cons {
		y := sol.Y[i]
		if y == 0 {
			continue
		}
		for _, tm := range c.terms {
			sol.ReducedCost[tm.Var] -= y * tm.Coef
		}
	}
	return sol, nil
}

// tableau is a dense simplex tableau. Row i occupies
// a[i*stride : i*stride+n+1] with the rhs in the final slot; cost is the
// reduced-cost row with the negated objective value in cost[n].
type tableau struct {
	m, n   int
	artLo  int // columns ≥ artLo are artificial
	stride int
	a      []float64
	basis  []int
	cost   []float64
	nz     []int // scratch: the nonzero columns of the last pivot row
}

// spare holds tableau storage between solves: the hierarchy's LP
// fallbacks on the Enzyme assays each need megabytes of tableau, and
// reusing it keeps that allocation out of every solve. Unlike a
// sync.Pool, which the garbage collector empties, the spare survives
// collections, so sequential solves reuse storage every time. Storage is
// cleared before each use, so no value survives from one solve into the
// next. The process keeps the largest tableau it has released until it
// exits: 19.4 MB after the Enzyme assay at n=5, 524 MB after
// vol002_fanout's largest LP. Concurrent solves find the spare taken
// and allocate their own.
var spare struct {
	mu sync.Mutex
	t  *tableau
}

// newTableau returns an all-zero m×n tableau, reusing the spare's
// storage when it is there. Hand it back with releaseTableau once the
// solve is done with it.
func newTableau(m, n, artLo int) *tableau {
	spare.mu.Lock()
	t := spare.t
	spare.t = nil
	spare.mu.Unlock()
	if t == nil {
		t = new(tableau)
	}
	*t = tableau{
		m:      m,
		n:      n,
		artLo:  artLo,
		stride: n + 1,
		a:      zeroed(t.a, m*(n+1)),
		basis:  zeroed(t.basis, m),
		cost:   zeroed(t.cost, n+1),
		nz:     t.nz[:0],
	}
	return t
}

// releaseTableau offers t's storage as the spare, keeping whichever of it
// and the current spare is larger.
func releaseTableau(t *tableau) {
	spare.mu.Lock()
	if spare.t == nil || cap(t.a) > cap(spare.t.a) {
		spare.t = t
	}
	spare.mu.Unlock()
}

// zeroed returns s resized to k zero elements, reusing its storage when
// it is large enough.
func zeroed[E int | float64](s []E, k int) []E {
	if cap(s) < k {
		return make([]E, k)
	}
	s = s[:k]
	clear(s)
	return s
}

// row returns row i including its rhs slot.
func (t *tableau) row(i int) []float64 {
	return t.a[i*t.stride : (i+1)*t.stride]
}

// iterate pivots until optimality, unboundedness, the iteration budget is
// exhausted, or opt.Budget trips (returned as the error). phase1 permits
// artificial columns to enter (they never improve phase-1 cost, but keeping
// the rule uniform is harmless); in phase 2 they are barred. Dantzig's rule
// is used until the objective stalls for 2*(m+n)+20 consecutive pivots,
// after which Bland's rule guarantees termination.
func (t *tableau) iterate(iters *int, opt Options, phase1 bool) (Status, error) {
	stallLimit := 2*(t.m+t.n) + 20
	stall := 0
	lastObj := math.Inf(1)
	bland := false
	enterLimit := t.n
	if !phase1 {
		enterLimit = t.artLo
	}
	for {
		if *iters >= opt.MaxIterations {
			return IterationLimit, nil
		}
		if err := opt.Budget.Charge(1); err != nil {
			return IterationLimit, err
		}
		// Entering column.
		enter := -1
		if bland {
			for j := 0; j < enterLimit; j++ {
				if t.cost[j] < -PivotTol {
					enter = j
					break
				}
			}
		} else {
			best := -PivotTol
			for j := 0; j < enterLimit; j++ {
				if t.cost[j] < best {
					best = t.cost[j]
					enter = j
				}
			}
		}
		if enter < 0 {
			return Optimal, nil
		}
		// Ratio test; ties broken by smallest basis index (lexicographic-ish
		// anti-cycling helper).
		leave := -1
		var minRatio float64
		for i := 0; i < t.m; i++ {
			aij := t.a[i*t.stride+enter]
			if aij <= PivotTol {
				continue
			}
			r := t.a[i*t.stride+t.n] / aij
			if leave < 0 || r < minRatio-PivotTol ||
				(r < minRatio+PivotTol && t.basis[i] < t.basis[leave]) {
				leave = i
				minRatio = r
			}
		}
		if leave < 0 {
			return Unbounded, nil
		}
		t.pivot(leave, enter)
		*iters++

		obj := -t.cost[t.n]
		if obj < lastObj-PivotTol {
			lastObj = obj
			stall = 0
		} else {
			stall++
			if stall > stallLimit {
				bland = true
			}
		}
	}
}

// pivot makes column enter basic in row leave by Gauss–Jordan
// elimination. It scales the whole pivot row, records the row's nonzero
// columns in t.nz, and updates the other rows and the cost row at those
// columns only, so a pivot costs the pivot row's nonzeros times the
// entering column's. Where the scaled pivot row is zero, a dense update
// would subtract a zero: that keeps every nonzero entry's bits and can
// only change the sign of a zero entry. No pivot decision reads that
// sign, the duals never see it, and in X it can only reach a zero value
// of a variable whose lower bound is −0.
func (t *tableau) pivot(leave, enter int) {
	prow := t.row(leave)
	inv := 1 / prow[enter]
	nz := t.nz[:0]
	for j, v := range prow {
		v *= inv
		prow[j] = v
		if v != 0 {
			nz = append(nz, j)
		}
	}
	t.nz = nz
	prow[enter] = 1 // exact
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		row := t.row(i)
		f := row[enter]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			row[j] -= f * prow[j]
		}
		row[enter] = 0 // exact
	}
	if f := t.cost[enter]; f != 0 {
		for _, j := range nz {
			t.cost[j] -= f * prow[j]
		}
		t.cost[enter] = 0
	}
	t.basis[leave] = enter
}

// expelArtificials pivots basic artificial variables out of the basis after
// phase 1. Rows where no non-artificial pivot exists are redundant and are
// zeroed so they can never bind again.
func (t *tableau) expelArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artLo {
			continue
		}
		base := i * t.stride
		pivotCol := -1
		for j := 0; j < t.artLo; j++ {
			if math.Abs(t.a[base+j]) > PivotTol {
				pivotCol = j
				break
			}
		}
		if pivotCol >= 0 {
			t.pivot(i, pivotCol)
			continue
		}
		// Redundant row (the artificial is basic at value ~0 and the row is
		// numerically zero over real columns): clear it.
		clear(t.row(i))
		// Keep the artificial basic in the zero row; since artificial
		// columns are barred from entering in phase 2 and the row is zero,
		// it never affects ratio tests.
	}
}
