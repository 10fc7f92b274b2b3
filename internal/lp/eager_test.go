package lp

import "math"

// eagerTableau is the dense simplex kernel that the deferred tableau
// replaced, kept as the reference that tableau must match bit for bit:
// each pivot updates every row at once. Row i occupies
// a[i*stride : i*stride+n+1] with the rhs in the final slot; cost is the
// reduced-cost row with the negated objective value in cost[n].
type eagerTableau struct {
	m, n   int
	artLo  int // columns ≥ artLo are artificial
	stride int
	a      []float64
	basis  []int
	cost   []float64
	nz     []int // scratch: the nonzero columns of the last pivot row
}

// solveEager is Solve on the eager kernel: the same standard form, the
// same two phases and the same solution extraction.
func solveEager(p *Problem, opts Options) (*Solution, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	d := new(tableau)
	f := p.standardForm(d)
	m, n := d.m, d.n
	t := &eagerTableau{
		m: m, n: n, artLo: d.artLo, stride: n + 1,
		a:     make([]float64, m*(n+1)),
		basis: d.basis,
		cost:  make([]float64, n+1),
	}
	for i := 0; i < m; i++ {
		for q := d.rowAt[i]; q < d.rowAt[i+1]; q++ {
			t.a[i*t.stride+int(d.rowCol[q])] = d.rowVal[q]
		}
		t.a[i*t.stride+n] = d.rhs[i]
	}
	opt := opts.withDefaults(m, len(f.cols))
	sol := &Solution{X: make([]float64, len(p.vars))}

	if f.nArt > 0 {
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
		if -t.cost[n] > FeasTol {
			sol.Status = Infeasible
			return sol, nil
		}
		t.expelArtificials()
	}

	for j := range t.cost {
		t.cost[j] = f.cost(p, j)
	}
	for i := 0; i < m; i++ {
		if cb := f.cost(p, t.basis[i]); cb != 0 {
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
	rhs := make([]float64, m)
	for i := range rhs {
		rhs[i] = t.a[i*t.stride+n]
	}
	p.optimum(f, sol, t.basis, rhs, t.cost)
	return sol, nil
}

// row returns row i including its rhs slot.
func (t *eagerTableau) row(i int) []float64 {
	return t.a[i*t.stride : (i+1)*t.stride]
}

// iterate is tableau.iterate with the ratio test reading the dense
// column.
func (t *eagerTableau) iterate(iters *int, opt Options, phase1 bool) (Status, error) {
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
// columns only.
func (t *eagerTableau) pivot(leave, enter int) {
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

// expelArtificials is tableau.expelArtificials on the dense rows.
func (t *eagerTableau) expelArtificials() {
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
		clear(t.row(i))
	}
}
