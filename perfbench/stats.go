package main

import (
	"cmp"
	"math"
	"slices"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks, the definition numpy and
// Python's statistics.quantiles(method="inclusive") share. xs is not
// modified; an empty slice yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// geomean returns the geometric mean of xs, all of which must be
// positive; an empty slice yields NaN.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// groupedMedian is op_p50_ms: the median latency of each group (an
// input) that has samples, combined across groups by geometric mean.
// Inputs differ in cost by up to 50×, so one median over all ops would
// jump between inputs as the op mix shifts; per-input medians do not.
func groupedMedian(samples map[int][]float64) float64 {
	var meds []float64
	for _, g := range sortedKeys(samples) {
		if len(samples[g]) > 0 {
			meds = append(meds, median(samples[g]))
		}
	}
	return geomean(meds)
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
