// Package lp implements a self-contained linear-programming solver.
//
// The paper "Automatic Volume Management for Programmable Microfluidics"
// (PLDI 2008) solves its Rational Volume Management (RVol) formulation with
// Matlab's linprog (LIPSOL). This repository is stdlib-only, so this package
// provides the substitute: a dense two-phase primal simplex over float64,
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
// Storage is a dense row-major tableau, which keeps the pivot rules
// simple and their tie-breaks exact, but the work is sparse: a pivot
// scales the pivot row, records its nonzero columns, and updates the
// other rows and the cost row at those columns only, so it costs the
// nonzeros it touches rather than rows × columns. On the final Enzyme
// LP of the Fig. 6 hierarchy at n=5 a pivot row averages 108 nonzeros
// of 1,961 columns (about 6%) over its 808 pivots. The tableau is
// filled straight from each constraint's sparse terms, and its storage
// is kept between solves as one mutex-guarded spare, cleared before
// every solve, so the hierarchy's repeated LP fallbacks do not each
// allocate a fresh multi-megabyte tableau. The glucose assay generates
// ~50 constraints, the enzyme assay ~900, and the scaled Enzyme10 stress
// test ~13k; the last still needs a dense tableau of over a gigabyte, so
// it is solved only on request (volbench -full), where its growth over
// Enzyme mirrors the paper's observation that LP scales far worse than
// DAGSolve.
package lp
