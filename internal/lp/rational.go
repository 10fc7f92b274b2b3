package lp

import (
	"fmt"
	"math"
	"math/big"
)

// SolveExact solves the problem with an exact simplex over math/big.Rat
// using Bland's rule throughout. It is immune to floating-point error and to
// cycling, at the cost of speed, and exists to cross-validate the float64
// solver in tests and to provide a trustworthy referee for small problems.
//
// Coefficients are converted from float64 exactly (every finite float64 is a
// rational). Infinite bounds are handled structurally, as in Solve.
func (p *Problem) SolveExact() (*Solution, error) {
	for _, v := range p.vars {
		if math.IsNaN(v.lo) || math.IsNaN(v.hi) || math.IsNaN(v.obj) {
			return nil, fmt.Errorf("%w: NaN in variable %q", ErrBadProblem, v.name)
		}
	}
	// Constraint NaNs must be rejected here, not just in Solve:
	// big.Rat.SetFloat64(NaN) is a silent no-op, so an unchecked NaN rhs
	// or coefficient would be treated as 0 rather than poisoning the
	// arithmetic the way it does in float64.
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

	var cols []column
	colOf := make([]int, len(p.vars))
	shift := make([]*big.Rat, len(p.vars))
	for j, v := range p.vars {
		colOf[j] = len(cols)
		if math.IsInf(v.lo, -1) {
			shift[j] = new(big.Rat)
			cols = append(cols, column{VarID(j), 1}, column{VarID(j), -1})
		} else {
			shift[j] = new(big.Rat).SetFloat64(v.lo)
			cols = append(cols, column{VarID(j), 1})
		}
	}
	nStruct := len(cols)

	type rrow struct {
		coefs []*big.Rat
		sense Sense
		rhs   *big.Rat
	}
	newRow := func() rrow {
		r := rrow{coefs: make([]*big.Rat, nStruct), rhs: new(big.Rat)}
		for k := range r.coefs {
			r.coefs[k] = new(big.Rat)
		}
		return r
	}
	var rows []rrow
	for _, c := range p.cons {
		r := newRow()
		r.sense = c.sense
		r.rhs.SetFloat64(c.rhs)
		for _, t := range c.terms {
			j := t.Var
			ci := colOf[j]
			coef := new(big.Rat).SetFloat64(t.Coef)
			r.coefs[ci].Add(r.coefs[ci], coef)
			if math.IsInf(p.vars[j].lo, -1) {
				r.coefs[ci+1].Sub(r.coefs[ci+1], coef)
			} else {
				r.rhs.Sub(r.rhs, new(big.Rat).Mul(coef, shift[j]))
			}
		}
		rows = append(rows, r)
	}
	for j, v := range p.vars {
		if math.IsInf(v.hi, 1) {
			continue
		}
		r := newRow()
		r.sense = LE
		ci := colOf[j]
		r.coefs[ci].SetInt64(1)
		hi := new(big.Rat).SetFloat64(v.hi)
		if math.IsInf(v.lo, -1) {
			r.coefs[ci+1].SetInt64(-1)
			r.rhs.Set(hi)
		} else {
			r.rhs.Sub(hi, shift[j])
		}
		rows = append(rows, r)
	}

	m := len(rows)
	nSlack, nArt := 0, 0
	zero := new(big.Rat)
	for i := range rows {
		if rows[i].rhs.Cmp(zero) < 0 {
			for k := range rows[i].coefs {
				rows[i].coefs[k].Neg(rows[i].coefs[k])
			}
			rows[i].rhs.Neg(rows[i].rhs)
			switch rows[i].sense {
			case LE:
				rows[i].sense = GE
			case GE:
				rows[i].sense = LE
			}
		}
		switch rows[i].sense {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	n := nStruct + nSlack + nArt
	artLo := n - nArt

	// Dense rational tableau: a[i][j], rhs at column n.
	a := make([][]*big.Rat, m)
	basis := make([]int, m)
	for i := range a {
		a[i] = make([]*big.Rat, n+1)
		for j := range a[i] {
			a[i][j] = new(big.Rat)
		}
	}
	slackAt, artAt := nStruct, nStruct+nSlack
	for i, r := range rows {
		for j := 0; j < nStruct; j++ {
			a[i][j].Set(r.coefs[j])
		}
		a[i][n].Set(r.rhs)
		switch r.sense {
		case LE:
			a[i][slackAt].SetInt64(1)
			basis[i] = slackAt
			slackAt++
		case GE:
			a[i][slackAt].SetInt64(-1)
			slackAt++
			a[i][artAt].SetInt64(1)
			basis[i] = artAt
			artAt++
		case EQ:
			a[i][artAt].SetInt64(1)
			basis[i] = artAt
			artAt++
		}
	}

	cost := make([]*big.Rat, n+1)
	for j := range cost {
		cost[j] = new(big.Rat)
	}

	pivot := func(leave, enter int) {
		inv := new(big.Rat).Inv(a[leave][enter])
		for j := 0; j <= n; j++ {
			a[leave][j].Mul(a[leave][j], inv)
		}
		tmp := new(big.Rat)
		for i := 0; i < m; i++ {
			if i == leave || a[i][enter].Cmp(zero) == 0 {
				continue
			}
			f := new(big.Rat).Set(a[i][enter])
			for j := 0; j <= n; j++ {
				tmp.Mul(f, a[leave][j])
				a[i][j].Sub(a[i][j], tmp)
			}
		}
		if cost[enter].Cmp(zero) != 0 {
			f := new(big.Rat).Set(cost[enter])
			tmp := new(big.Rat)
			for j := 0; j <= n; j++ {
				tmp.Mul(f, a[leave][j])
				cost[j].Sub(cost[j], tmp)
			}
		}
		basis[leave] = enter
	}

	// iterate runs Bland's-rule simplex to optimality or unboundedness.
	iterate := func(enterLimit int) Status {
		for {
			enter := -1
			for j := 0; j < enterLimit; j++ {
				if cost[j].Cmp(zero) < 0 {
					enter = j
					break
				}
			}
			if enter < 0 {
				return Optimal
			}
			leave := -1
			ratio := new(big.Rat)
			r := new(big.Rat)
			for i := 0; i < m; i++ {
				if a[i][enter].Cmp(zero) <= 0 {
					continue
				}
				r.Quo(a[i][n], a[i][enter])
				if leave < 0 || r.Cmp(ratio) < 0 ||
					(r.Cmp(ratio) == 0 && basis[i] < basis[leave]) {
					leave = i
					ratio.Set(r)
				}
			}
			if leave < 0 {
				return Unbounded
			}
			pivot(leave, enter)
		}
	}

	sol := &Solution{X: make([]float64, len(p.vars))}

	if nArt > 0 {
		for j := 0; j <= n; j++ {
			s := new(big.Rat)
			for i := 0; i < m; i++ {
				if basis[i] >= artLo {
					s.Add(s, a[i][j])
				}
			}
			cost[j].Neg(s)
		}
		one := big.NewRat(1, 1)
		for j := artLo; j < n; j++ {
			cost[j].Add(cost[j], one)
		}
		iterate(n) // phase 1 cannot be unbounded
		obj := new(big.Rat).Neg(cost[n])
		if obj.Cmp(zero) > 0 {
			sol.Status = Infeasible
			return sol, nil
		}
		// Expel basic artificials.
		for i := 0; i < m; i++ {
			if basis[i] < artLo {
				continue
			}
			done := false
			for j := 0; j < artLo && !done; j++ {
				if a[i][j].Cmp(zero) != 0 {
					pivot(i, j)
					done = true
				}
			}
			if !done {
				for j := 0; j <= n; j++ {
					a[i][j].SetInt64(0)
				}
			}
		}
	}

	sign := int64(1)
	if p.dir == Maximize {
		sign = -1
	}
	structCost := func(j int) *big.Rat {
		if j >= nStruct {
			return zero
		}
		c := new(big.Rat).SetFloat64(p.vars[cols[j].orig].obj * cols[j].sign)
		return c.Mul(c, big.NewRat(sign, 1))
	}
	tmp := new(big.Rat)
	for j := 0; j <= n; j++ {
		c := new(big.Rat)
		if j < n {
			c.Set(structCost(j))
		}
		for i := 0; i < m; i++ {
			cb := structCost(basis[i])
			if cb.Cmp(zero) != 0 {
				tmp.Mul(cb, a[i][j])
				c.Sub(c, tmp)
			}
		}
		cost[j].Set(c)
	}
	if st := iterate(artLo); st == Unbounded {
		sol.Status = Unbounded
		return sol, nil
	}

	colVal := make([]*big.Rat, n)
	for j := range colVal {
		colVal[j] = new(big.Rat)
	}
	for i := 0; i < m; i++ {
		colVal[basis[i]].Set(a[i][n])
	}
	for j := range p.vars {
		x := new(big.Rat).Set(shift[j])
		ci := colOf[j]
		x.Add(x, colVal[ci])
		if math.IsInf(p.vars[j].lo, -1) {
			x.Sub(x, colVal[ci+1])
		}
		sol.X[j], _ = x.Float64()
	}
	obj := 0.0
	for j, v := range p.vars {
		obj += float64(v.obj * sol.X[j])
	}
	sol.Objective = obj
	sol.Status = Optimal
	return sol, nil
}
