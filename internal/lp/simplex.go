package lp

import (
	"errors"
	"fmt"
	"math"

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
// Solve is certified parallel-safe: any Problems may be solved
// concurrently, one Problem from several goroutines too, since Solve only
// reads its receiver. (Adding to a Problem while it is being solved races,
// as with any mutable value.)
//
//fluidvet:parallelsafe
func (p *Problem) Solve(opts Options) (*Solution, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	t := takeTableau()
	defer releaseTableau(t)
	return p.solve(t, opts)
}

// solve runs the simplex on p, which validate accepted, in t's storage.
func (p *Problem) solve(t *tableau, opts Options) (*Solution, error) {
	f := p.standardForm(t)
	opt := opts.withDefaults(t.m, len(f.cols))
	sol := &Solution{X: make([]float64, len(p.vars))}

	// Phase 1: minimize the sum of artificial variables. The reduced
	// costs are minus the column sums over the artificial-basic rows,
	// accumulated row by row (in row order, as a column scan would).
	// Every row is still its sparse constraint row. Its other entries are
	// +0, and a sum that starts at +0 never becomes −0, so adding them
	// would change no bits.
	n := t.n
	if f.nArt > 0 {
		for i := 0; i < t.m; i++ {
			if t.basis[i] < t.artLo {
				continue
			}
			for q := t.rowAt[i]; q < t.rowAt[i+1]; q++ {
				t.cost[t.rowCol[q]] += t.rowVal[q]
			}
			t.cost[n] += t.rhs[i]
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
	// cost-bearing basic rows (in row order, as a column scan would). Each
	// such row is brought up to date whole: subtracting cb·0 can turn a −0
	// cost into +0, so its zero entries count too.
	for j := range t.cost {
		t.cost[j] = f.cost(p, j)
	}
	for i := 0; i < t.m; i++ {
		if cb := f.cost(p, t.basis[i]); cb != 0 {
			for j, v := range t.row(i) {
				t.cost[j] -= float64(cb * v)
			}
			t.cost[n] -= float64(cb * t.rhs[i])
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
	p.optimum(f, sol, t.basis, t.rhs, t.cost)
	return sol, nil
}

// validate rejects a problem with a NaN anywhere.
func (p *Problem) validate() error {
	for _, v := range p.vars {
		if math.IsNaN(v.lo) || math.IsNaN(v.hi) || math.IsNaN(v.obj) {
			return fmt.Errorf("%w: NaN in variable %q", ErrBadProblem, v.name)
		}
	}
	for _, c := range p.cons {
		if math.IsNaN(c.rhs) {
			return fmt.Errorf("%w: NaN rhs in constraint %q", ErrBadProblem, c.name)
		}
		for _, t := range c.terms {
			if math.IsNaN(t.Coef) {
				return fmt.Errorf("%w: NaN coefficient in constraint %q", ErrBadProblem, c.name)
			}
		}
	}
	return nil
}

// form records how a Problem maps onto the simplex's standard form,
// min cᵀx over x ≥ 0 with every row's rhs ≥ 0, so that a solution can be
// mapped back.
type form struct {
	cols  []column  // the structural columns
	colOf []int     // the first column of each variable
	shift []float64 // each variable's lower-bound shift
	flip  []bool    // rows negated to make their rhs ≥ 0, whose duals flip back
	// idCol[i] is the identity column of row i — the auxiliary column
	// (slack for LE, artificial for GE/EQ) whose only nonzero entry is a
	// +1 in row i and whose phase-2 objective coefficient is zero. At
	// phase-2 optimality, -cost[idCol[i]] is therefore exactly the
	// internal dual value of row i.
	idCol []int
	nArt  int     // artificial columns
	sign  float64 // −1 when maximizing, so that the simplex minimizes
}

// cost is column j's phase-2 objective coefficient.
func (f *form) cost(p *Problem, j int) float64 {
	if j >= len(f.cols) {
		return 0
	}
	return f.sign * p.vars[f.cols[j].orig].obj * f.cols[j].sign
}

// standardForm fills t with p in standard form: its initial rows as
// sparse rows, its rhs and its starting basis of identity columns.
//
// Finite lower bounds are eliminated by shifting (x = lo + x'), free
// variables split into two columns, finite upper bounds become internal
// LE rows after the constraints, and each row is negated where needed so
// that its rhs is ≥ 0. An LE row gets a slack, a GE row a surplus and an
// artificial, an EQ row an artificial; slacks and surpluses follow the
// structural columns and artificials come last.
func (p *Problem) standardForm(t *tableau) *form {
	nCols, nRows := len(p.vars), len(p.cons)
	for _, v := range p.vars {
		if math.IsInf(v.lo, -1) {
			nCols++
		}
		if !math.IsInf(v.hi, 1) {
			nRows++
		}
	}
	f := &form{
		cols:  make([]column, 0, nCols),
		colOf: make([]int, len(p.vars)),
		shift: make([]float64, len(p.vars)),
		flip:  make([]bool, 0, nRows),
		sign:  1,
	}
	if p.dir == Maximize {
		f.sign = -1
	}
	for j, v := range p.vars {
		f.colOf[j] = len(f.cols)
		if math.IsInf(v.lo, -1) {
			f.cols = append(f.cols, column{VarID(j), 1}, column{VarID(j), -1})
		} else {
			f.shift[j] = v.lo
			f.cols = append(f.cols, column{VarID(j), 1})
		}
	}
	nStruct := len(f.cols)

	// Rows: user constraints plus internal upper-bound rows, each
	// normalized to b ≥ 0.
	type row struct {
		sense Sense
		rhs   float64
	}
	rows := make([]row, 0, nRows)
	nSlack := 0
	addRow := func(sense Sense, rhs float64) {
		r := row{sense: sense, rhs: rhs}
		flip := rhs < 0
		if flip {
			r.rhs = -rhs
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
			f.nArt++
		case EQ:
			f.nArt++
		}
		rows = append(rows, r)
		f.flip = append(f.flip, flip)
	}
	for _, c := range p.cons {
		rhs := c.rhs
		for _, tm := range c.terms {
			if !math.IsInf(p.vars[tm.Var].lo, -1) {
				rhs -= float64(tm.Coef * f.shift[tm.Var])
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
	n := nStruct + nSlack + f.nArt
	t.reset(m, n, n-f.nArt)

	// Each row's entries go in column order: the structural columns from
	// the merged terms, which name each variable once (so each entry is
	// written once, negated on a flipped row), then its identity columns.
	f.idCol = make([]int, m)
	slackAt, artAt := nStruct, nStruct+nSlack
	i := 0
	put := func(j int, coef float64) {
		if f.flip[i] {
			coef = -coef
		}
		t.add(j, coef)
	}
	endRow := func() {
		switch rows[i].sense {
		case LE:
			t.add(slackAt, 1)
			f.idCol[i] = slackAt
			slackAt++
		case GE:
			t.add(slackAt, -1)
			slackAt++
			t.add(artAt, 1)
			f.idCol[i] = artAt
			artAt++
		case EQ:
			t.add(artAt, 1)
			f.idCol[i] = artAt
			artAt++
		}
		t.endRow(rows[i].rhs, f.idCol[i])
		i++
	}
	for _, c := range p.cons {
		for _, tm := range c.terms {
			ci := f.colOf[tm.Var]
			put(ci, tm.Coef)
			if math.IsInf(p.vars[tm.Var].lo, -1) {
				put(ci+1, -tm.Coef)
			}
		}
		endRow()
	}
	for j, v := range p.vars {
		if math.IsInf(v.hi, 1) {
			continue
		}
		put(f.colOf[j], 1)
		if math.IsInf(v.lo, -1) {
			put(f.colOf[j]+1, -1)
		}
		endRow()
	}
	t.indexColumns()
	return f
}

// optimum fills sol from an optimal basis: X and the objective from the
// basic rows' rhs, Y and ReducedCost from the reduced-cost row.
func (p *Problem) optimum(f *form, sol *Solution, basis []int, rhs, cost []float64) {
	// Extract the solution, mapping columns back through shifts and splits.
	colVal := make([]float64, len(cost)-1)
	for i, v := range rhs {
		if v < 0 && v > -FeasTol {
			v = 0
		}
		colVal[basis[i]] = v
	}
	for j := range p.vars {
		x := f.shift[j]
		ci := f.colOf[j]
		x += colVal[ci]
		if math.IsInf(p.vars[j].lo, -1) {
			x -= colVal[ci+1]
			x -= f.shift[j] // no shift applied for free vars
		}
		sol.X[j] = x
	}
	obj := 0.0
	for j, v := range p.vars {
		obj += float64(v.obj * sol.X[j])
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
		yhat := -cost[f.idCol[i]]
		if f.flip[i] {
			yhat = -yhat
		}
		sol.Y[i] = f.sign * yhat
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
			sol.ReducedCost[tm.Var] -= float64(y * tm.Coef)
		}
	}
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
		for i, aij := range t.column(enter) {
			if aij <= PivotTol {
				continue
			}
			r := t.rhs[i] / aij
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

// expelArtificials pivots basic artificial variables out of the basis after
// phase 1. Rows where no non-artificial pivot exists are redundant and are
// zeroed so they can never bind again.
func (t *tableau) expelArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artLo {
			continue
		}
		r := t.row(i)
		pivotCol := -1
		for j, v := range r[:t.artLo] {
			if math.Abs(v) > PivotTol {
				pivotCol = j
				break
			}
		}
		if pivotCol >= 0 {
			t.column(pivotCol)
			t.pivot(i, pivotCol)
			continue
		}
		// Redundant row (the artificial is basic at value ~0 and the row is
		// numerically zero over real columns): clear it.
		clear(r)
		t.rhs[i] = 0
		// Keep the artificial basic in the zero row; since artificial
		// columns are barred from entering in phase 2 and the row is zero,
		// it never affects ratio tests.
	}
}
