// Package ilp implements integer linear programming by branch and bound
// over the internal/lp simplex solver.
//
// The paper casts Integer Volume Management (IVol) as an ILP and observes
// (§4.3) that an off-the-shelf ILP solver matches LP on the small glucose
// assay but "ran for hours without generating a solution" on the enzyme
// assay. This package substitutes for the paper's LP_Solve 5.5: a classic
// depth-first branch and bound with most-fractional branching. The paper's
// blow-up is reproduced as NodeLimit exhaustion under a configurable budget.
package ilp

import (
	"errors"
	"fmt"
	"math"
	"time"

	"aquavol/internal/budget"
	"aquavol/internal/lp"
)

// Status is the outcome of a branch-and-bound run.
type Status int

const (
	// Optimal means the best integer-feasible solution found is provably
	// optimal (the tree was exhausted).
	Optimal Status = iota
	// Infeasible means no integer-feasible point exists.
	Infeasible
	// NodeLimit means the node budget was exhausted. Result.X holds the
	// incumbent if HasIncumbent is true.
	NodeLimit
	// Unbounded means the LP relaxation is unbounded.
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case NodeLimit:
		return "node-limit"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// intTol is how close to an integer a value must be to count as
// integral.
const intTol = 1e-6

// Options tunes the search. The zero value selects defaults.
type Options struct {
	// MaxNodes bounds the number of branch-and-bound nodes explored.
	// 0 selects 100000.
	MaxNodes int
	// MaxTime bounds the wall-clock search time (each node costs one LP
	// solve, which can be expensive on large formulations). 0 means no
	// time bound. MaxNodes and MaxTime are implemented as an internal
	// budget.Meter charged one unit per node; hitting either truncates
	// the search (Status NodeLimit) and records the typed cause in
	// Result.Stop.
	MaxTime time.Duration
	// Budget, when non-nil, is the caller's shared budget: charged one
	// work unit per node and routed into every node's LP solve.
	// Exhaustion or deadline on this meter truncates the search like
	// MaxNodes/MaxTime; caller cancellation (budget.ErrCancelled) aborts
	// Solve with that error.
	Budget *budget.Meter
	// Integers lists the variables that must take integer values. Empty
	// means every variable is integral.
	Integers []lp.VarID
}

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 100000
	}
	return o
}

// Result is the outcome of Solve.
type Result struct {
	Status Status
	// HasIncumbent reports whether X/Objective hold a feasible integer
	// point (always true for Optimal, possibly true for NodeLimit).
	HasIncumbent bool
	Objective    float64
	X            []float64
	// Nodes is the number of branch-and-bound nodes explored. When the
	// node budget truncates the search, Nodes == MaxNodes exactly: the
	// node that would have exceeded the budget is never explored.
	Nodes int
	// Stop records why a NodeLimit truncation happened, as a typed
	// budget cause: budget.ErrExhausted for MaxNodes (or an exhausted
	// Options.Budget), budget.ErrDeadline for MaxTime (or a Budget
	// deadline). Nil for every other status, and nil when NodeLimit
	// arose from an inner LP iteration limit. Truncation is reported,
	// never silent: callers inspect Stop (or Status) before trusting
	// Objective/X as anything more than an incumbent.
	Stop error
}

// Solve runs branch and bound on p. The problem's variable bounds are
// temporarily tightened during the search and restored before returning, so
// p may be reused afterwards.
//
// Truncation by MaxNodes, MaxTime, or an exhausted Options.Budget returns a
// partial Result (Status NodeLimit, typed cause in Result.Stop, incumbent if
// one was found). Caller cancellation through Options.Budget returns a nil
// Result and an error wrapping budget.ErrCancelled.
//
// Solve is certified parallel-safe over distinct Problems; the bound
// tightening mutates p, so concurrent solves of one Problem race on the
// receiver as with any mutable value.
//
//fluidvet:parallelsafe
func Solve(p *lp.Problem, opts Options) (*Result, error) {
	opt := opts.withDefaults()
	n := p.NumVariables()

	isInt := make([]bool, n)
	if len(opt.Integers) == 0 {
		for i := range isInt {
			isInt[i] = true
		}
	} else {
		for _, v := range opt.Integers {
			isInt[v] = true
		}
	}

	// Save bounds so the search can mutate and restore them.
	savedLo := make([]float64, n)
	savedHi := make([]float64, n)
	for j := 0; j < n; j++ {
		savedLo[j], savedHi[j] = p.Bounds(lp.VarID(j))
	}
	defer func() {
		for j := 0; j < n; j++ {
			p.SetBounds(lp.VarID(j), savedLo[j], savedHi[j])
		}
	}()

	res := &Result{Status: Infeasible}
	maximize := p.Direction() == lp.Maximize

	better := func(a, b float64) bool {
		if maximize {
			return a > b+1e-9
		}
		return a < b-1e-9
	}

	var search func(depth int) error
	sawNodeLimit := false
	// MaxNodes and MaxTime are one internal meter, charged a unit per
	// node and polled for the deadline on every charge (the per-node LP
	// solve dwarfs a clock read). The node budget is deterministic; the
	// MaxTime deadline is a resource guard, not replayed state — a
	// truncated search reports Status=NodeLimit either way, and no
	// journal or snapshot records the wall time.
	bound := budget.New(int64(opt.MaxNodes)).WithDeadline(opt.MaxTime).DeadlineEvery(1)
	truncate := func(cause error) {
		sawNodeLimit = true
		if res.Stop == nil {
			res.Stop = cause
		}
	}
	lpOpts := lp.Options{Budget: opt.Budget}
	search = func(depth int) error {
		if err := bound.Charge(1); err != nil {
			truncate(err)
			return nil
		}
		if err := opt.Budget.Charge(1); err != nil {
			if errors.Is(err, budget.ErrCancelled) {
				return err
			}
			truncate(err)
			return nil
		}
		res.Nodes++
		sol, err := p.Solve(lpOpts)
		if err != nil {
			// A budget stop mid-LP truncates like a node bound — unless
			// the caller cancelled, which aborts the whole search.
			if budget.IsStop(err) && !errors.Is(err, budget.ErrCancelled) {
				truncate(err)
				return nil
			}
			return err
		}
		switch sol.Status {
		case lp.Infeasible:
			return nil
		case lp.Unbounded:
			if depth == 0 {
				res.Status = Unbounded
			}
			return nil
		case lp.IterationLimit:
			// Treat as unexplorable; conservative for optimality but keeps
			// the search total.
			sawNodeLimit = true
			return nil
		}
		// Prune by bound against the incumbent.
		if res.HasIncumbent && !better(sol.Objective, res.Objective) {
			return nil
		}
		// Most fractional integral variable.
		branch := -1
		worst := intTol
		for j := 0; j < n; j++ {
			if !isInt[j] {
				continue
			}
			f := sol.X[j] - math.Floor(sol.X[j])
			dist := math.Min(f, 1-f)
			if dist > worst {
				worst = dist
				branch = j
			}
		}
		if branch < 0 {
			// Integer feasible: new incumbent.
			if !res.HasIncumbent || better(sol.Objective, res.Objective) {
				res.HasIncumbent = true
				res.Objective = sol.Objective
				res.X = append(res.X[:0], sol.X...)
			}
			return nil
		}
		v := lp.VarID(branch)
		lo, hi := p.Bounds(v)
		x := sol.X[branch]

		// Down branch: x ≤ floor.
		if fl := math.Floor(x); fl >= lo-intTol {
			p.SetBounds(v, lo, math.Min(hi, fl))
			if err := search(depth + 1); err != nil {
				return err
			}
			p.SetBounds(v, lo, hi)
		}
		// Up branch: x ≥ ceil.
		if cl := math.Ceil(x); cl <= hi+intTol {
			p.SetBounds(v, math.Max(lo, cl), hi)
			if err := search(depth + 1); err != nil {
				return err
			}
			p.SetBounds(v, lo, hi)
		}
		return nil
	}

	if err := search(0); err != nil {
		return nil, err
	}
	if res.Status == Unbounded {
		return res, nil
	}
	switch {
	case sawNodeLimit:
		res.Status = NodeLimit
	case res.HasIncumbent:
		res.Status = Optimal
	default:
		res.Status = Infeasible
	}
	return res, nil
}
