package analysis

import (
	"fmt"
	"math"
	"strings"

	"aquavol/internal/dag"
	"aquavol/internal/diag"
)

// divisibilityPass is the least-count divisibility lint (VOL030): every
// dispensed volume must be an integer multiple of the hardware least
// count, so a mix is exactly realizable within one reservoir only if some
// integer total T ≤ MaxSkew splits into integer per-component counts in
// the requested proportions (e.g. 1:8 → T=9; 1:100:1 → T=102). Ratios
// with no such T (say 1:3.1417) are silently rounded by the dispenser;
// this pass surfaces the rounding and suggests the closest realizable
// ratio.
func divisibilityPass(ctx *Context) diag.List {
	var out diag.List
	maxTotal := int(math.Floor(ctx.Cfg.MaxSkew() + countTol))
	if maxTotal > maxTotalScan {
		maxTotal = maxTotalScan
	}
	for _, n := range ctx.Graph.Nodes() {
		if n == nil || n.Kind != dag.Mix || len(n.In()) < 2 {
			continue
		}
		if dag.ExtremeRatio(n) > ctx.Cfg.MaxSkew() {
			continue // already reported by the skew/interval passes
		}
		if bestT, bestErr := scanTotals(n, maxTotal); bestErr > countTol {
			d := CodeInexactRatio.New(ctx.PosOf(n),
				"mix %s: ratios are not realizable as integer multiples of the least count within one reservoir (no exact total ≤ %d parts)",
				n.Name, maxTotal)
			if bestT > 0 && !math.IsInf(bestErr, 1) {
				d.Suggestion = fmt.Sprintf("closest realizable ratio is %s (%d parts, max error %.2g%%)",
					countsString(n, bestT), bestT, bestErr/float64(bestT)*100)
			}
			out = append(out, d)
		}
	}
	return out
}

// countTol separates float noise in frac×T (≲1e-12 for ratios that are
// exact rationals with denominator ≤ MaxSkew) from genuine misses (the
// best non-matching rational approximations err by ≳1e-5).
const countTol = 1e-6

// maxTotalScan bounds the search for pathological configurations.
const maxTotalScan = 100000

// scanTotals finds the smallest total part count T at which every
// component count frac×T is integral (within countTol) and ≥ 1. When none
// exists it returns the T minimizing the worst absolute count error.
func scanTotals(n *dag.Node, maxTotal int) (bestT int, bestErr float64) {
	bestErr = math.Inf(1)
	for T := len(n.In()); T <= maxTotal; T++ {
		worst := 0.0
		for _, e := range n.In() {
			c := e.Frac * float64(T)
			if c < 0.5 {
				worst = math.Inf(1) // a component would get zero parts
				break
			}
			if err := math.Abs(c - math.Round(c)); err > worst {
				worst = err
			}
		}
		if worst < bestErr {
			bestT, bestErr = T, worst
		}
		if worst <= countTol {
			return T, worst
		}
	}
	return bestT, bestErr
}

// countsString renders the rounded integer counts at total T in edge
// order, e.g. "1:3".
func countsString(n *dag.Node, T int) string {
	parts := make([]string, len(n.In()))
	for i, e := range n.In() {
		c := math.Round(e.Frac * float64(T))
		if c < 1 {
			c = 1
		}
		parts[i] = fmt.Sprintf("%d", int(c))
	}
	return strings.Join(parts, ":")
}
