package lp

// Tolerance policy for the whole volume-management stack, in one place.
//
// Every float comparison against an LP solution — inside the solver, in
// the lp tests, and in the independent certificate checker
// (internal/certify) — uses one of these named constants. The values form
// a deliberate ladder: each tier is looser than the one below it because
// it accumulates more rounding (pivots → extracted values → cross-solver
// comparisons), and a check at tier k must tolerate everything tiers < k
// legitimately let through.
const (
	// PivotTol is the pivot / reduced-cost tolerance used inside the
	// simplex iterations. Entries smaller than this are treated as zero
	// during pivoting.
	PivotTol = 1e-9

	// FeasTol is the phase-1 feasibility tolerance: a phase-1 objective
	// below this means the problem is feasible.
	FeasTol = 1e-7

	// SolutionTol compares individual solution values (variable values,
	// duals, reduced costs) against exact or independently recomputed
	// references. It is looser than PivotTol because extraction
	// accumulates one rounding per basic row.
	SolutionTol = 1e-6

	// FeasCheckTol re-checks a finished solution against the original
	// constraints (Σ a_ij·x_j vs b_i). Residuals accumulate one rounding
	// per term, so this sits above SolutionTol.
	FeasCheckTol = 1e-5

	// ObjectiveRelTol compares objective values across solvers or across
	// reformulations of the same problem, relative to 1+|objective|.
	// The loosest tier: it absorbs two independent solves' error.
	ObjectiveRelTol = 1e-4
)
