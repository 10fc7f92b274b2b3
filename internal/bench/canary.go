package bench

// The CPU-speed canary: a frozen pure-computation kernel measured and
// recorded alongside the solver rows in BENCH_solver.json. Solver
// throughput on a shared host swings with noisy neighbors and
// frequency scaling by far more than any regression bound worth
// gating; the canary row records how fast the recording host ran a
// fixed ALU-bound workload, so readers of the trajectory file can
// tell a host-speed jump from a real solver change when comparing
// recordings across containers.
//
// DO NOT MODIFY the kernel: recorded trajectories are interpreted
// against it, so changing its cost silently rescales every recorded
// baseline. If it ever must change, re-record BENCH_solver.json in the
// same commit.

// canaryIters sizes the kernel near the mid-size solver cells (~50µs
// per op on the recording container class) so the measurement harness
// treats it like any other cell.
const canaryIters = 20000

// canarySink keeps the kernel's result observable so the compiler
// cannot elide the loop.
var canarySink float64

// canaryKernel runs a fixed xorshift64 + float64 accumulation loop:
// deterministic, allocation-free, and independent of every solver
// package, so no solver PR can change its cost.
func canaryKernel() error {
	x := uint64(0x9E3779B97F4A7C15)
	var acc float64
	for i := 0; i < canaryIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += float64(float64(x>>40) * 1e-12)
	}
	canarySink = acc
	return nil
}
