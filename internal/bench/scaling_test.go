package bench

import (
	"math"
	"testing"
	"time"

	"aquavol/internal/aisverify"
	"aquavol/internal/assays"
	"aquavol/internal/core"
)

// sized is one workload of a scaling check: a run and its size in units.
type sized struct {
	units int
	run   func()
}

// nsPerUnit repeats s.run for at least 20 ms and returns the mean time per
// unit of size.
func nsPerUnit(s sized) float64 {
	reps := 0
	var elapsed time.Duration
	start := time.Now() //fluidvet:allow determinism wall-clock timing is the benchmark's measurement, reported not replayed
	for elapsed < 20*time.Millisecond {
		s.run()
		reps++
		elapsed = time.Since(start) //fluidvet:allow determinism wall-clock timing is the benchmark's measurement, reported not replayed
	}
	return float64(elapsed.Nanoseconds()) / float64(reps*s.units)
}

// TestScalingLinear holds DAGSolve, which §3.3 states is linear, and
// aisverify to linear growth: a stage's cost per unit of size at a large
// size stays within twice its cost at a small size. Both sizes are timed
// in one process, alternating, best of eleven, so host speed cancels out
// of the ratio.
func TestScalingLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the per-unit timings")
	}
	c := cfg()
	dagSolve := func(n int) sized {
		g := assays.EnzymeDAG(n)
		return sized{g.NumNodes(), func() {
			if _, err := core.DAGSolve(g, c, nil); err != nil {
				t.Fatal(err)
			}
		}}
	}
	verify := func(n int) sized {
		prog, opts, err := enzymeListing(n)
		if err != nil {
			t.Fatal(err)
		}
		return sized{len(prog.Instrs), func() { aisverify.Verify(prog, opts) }}
	}
	for _, st := range []struct {
		stage, unit  string
		small, large sized
	}{
		{"DAGSolve", "node (EnzymeDAG 4 → 12)", dagSolve(4), dagSolve(12)},
		{"aisverify", "instruction (Enzyme 2 → 5 listing)", verify(2), verify(5)},
	} {
		small, large := math.Inf(1), math.Inf(1)
		for round := 0; round < 11; round++ {
			small = math.Min(small, nsPerUnit(st.small))
			large = math.Min(large, nsPerUnit(st.large))
		}
		ratio := large / small
		t.Logf("%s per %s: %.0f → %.0f ns (%d → %d units), ratio %.2f",
			st.stage, st.unit, small, large, st.small.units, st.large.units, ratio)
		if ratio > 2 {
			t.Errorf("%s costs %.2f× more per unit at the large size, bound 2", st.stage, ratio)
		}
	}
}
