package main

import (
	"math"
	"testing"
)

func TestProbe(t *testing.T) {
	p, err := newProbe()
	if err != nil {
		t.Fatal(err)
	}
	if ms := p.read(); !(ms > 0) || math.IsInf(ms, 0) {
		t.Errorf("probe read %v ms", ms)
	}
	// The probe must not allocate: allocation would move the garbage
	// collector's pacing, and with it the ops the probe runs between.
	if n := testing.AllocsPerRun(3, func() { p.read() }); n != 0 {
		t.Errorf("probe read allocates %v times", n)
	}
}

func TestScale(t *testing.T) {
	if got := scale([]float64{probeRefMs}); got != 1 {
		t.Errorf("at the reference speed: scale = %v, want 1", got)
	}
	// A host twice as slow halves the times; the median reading counts.
	if got := scale([]float64{probeRefMs, 2 * probeRefMs, 2 * probeRefMs}); !near(got, 0.5) {
		t.Errorf("on a host twice as slow: scale = %v, want 0.5", got)
	}
}
