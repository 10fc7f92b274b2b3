package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{7, 1, 3, 5} // sorted: 1 3 5 7
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2.5}, {50, 4}, {75, 5.5}, {99, 6.94}, {100, 7},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 7 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{4}, 99); got != 4 {
		t.Errorf("one sample: got %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("no samples should give NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); !near(got, 10) {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	if got := geomean([]float64{2, 8, 4}); !near(got, 4) {
		t.Errorf("geomean(2, 8, 4) = %v, want 4", got)
	}
	if !math.IsNaN(geomean(nil)) {
		t.Error("no samples should give NaN")
	}
}

func TestGroupedMedian(t *testing.T) {
	// Input 0 is 100× input 1; one slow outlier in each does not move
	// its median.
	samples := map[int][]float64{
		0: {100, 100, 900},
		1: {1, 1, 9},
		2: {},
	}
	if got := groupedMedian(samples); !near(got, 10) {
		t.Errorf("groupedMedian = %v, want 10", got)
	}
}
