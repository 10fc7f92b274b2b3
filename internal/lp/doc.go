// Package lp implements a self-contained linear-programming solver.
//
// The paper "Automatic Volume Management for Programmable Microfluidics"
// (PLDI 2008) solves its Rational Volume Management (RVol) formulation with
// Matlab's linprog (LIPSOL). This repository is stdlib-only, so this package
// provides the substitute: a two-phase primal simplex over float64,
// plus an exact mirror over math/big.Rat used to cross-validate the floating
// point path in tests.
//
// The solver handles problems of the form
//
//	min (or max)  cᵀx
//	subject to    aᵢᵀx  {≤, ≥, =}  bᵢ      for each constraint i
//	              lo_j ≤ x_j ≤ hi_j        for each variable j
//
// Finite lower bounds are eliminated by shifting, finite upper bounds become
// internal rows, and free variables are split into positive and negative
// parts, so the core simplex only ever sees x ≥ 0.
//
// Determinism: given the same Problem, Solve always performs the same pivot
// sequence (Dantzig's rule with a Bland's-rule anti-cycling fallback), so
// results are reproducible across runs.
//
// Storage defers the pivots' updates. A pivot updates the rhs and the
// reduced-cost row at once and logs the rest: the entering column's
// nonzeros (one multiplier f per other row) and the scaled pivot row's
// nonzeros (one value p per column). A row is its sparse constraint row,
// indexed by column, until it is first needed whole (as a pivot row, in
// phase 2's reduced-cost setup, or to expel an artificial), when it gets
// dense storage and replays the pivots logged since it was last synced.
// The ratio test computes the entering column from each row's stored
// value plus the logged pivots whose pivot row has a nonzero in that
// column. On the final Enzyme LP of the Fig. 6 hierarchy at n=5 (1,236
// rows × 1,959 columns, 808 pivots), 740 rows ever go dense, and the
// log holds 87,075 pivot-row and 400,789 entering-column nonzeros.
//
// Soundness: the deferred kernel is the eager one with its operations
// reordered across elements but never within one. Each element receives
// the same operations in the same order — a −= f·p for every pivot
// whose multiplier and pivot-row value are both nonzero, the exact 0
// written in the entering column, the exact 1 and the scaling by
// 1/pivot in the pivot row — and every operation reads values that have
// themselves received exactly their earlier operations. So every
// element, every pivot choice, the iteration count and X, Y and
// ReducedCost are bit for bit what eager updates give. The eager kernel
// is kept in the tests as the reference, and LP goldens recorded with it
// pin the results. When the log would outgrow the dense
// tableau it stands in for, every pending update is applied and the log
// restarts, which changes no bits either.
//
// The storage is kept between solves as one mutex-guarded spare, so the
// hierarchy's repeated LP fallbacks do not each allocate it afresh. The
// glucose assay generates ~50 constraints, the enzyme assay ~900, and the
// scaled Enzyme10 stress test ~14k; a dense tableau for the last would
// take over a gigabyte, but its LP proves infeasibility in 44 pivots, so
// only the rows those pivots need ever go dense.
package lp
