// Package core implements the paper's volume-management algorithms: the
// RVol/IVol linear-programming formulations (§3.2), the linear-time
// DAGSolve algorithm (§3.3), the cascading and static-replication
// extensions (§3.4), run-time handling of statically-unknown volumes
// (§3.5), rounding of rational volume assignments to integer multiples of
// the hardware least count, and the volume-management hierarchy of Fig. 6
// that ties them together.
package core

import (
	"fmt"
	"math"

	"aquavol/internal/budget"
	"aquavol/internal/dag"
)

// Config holds the hardware parameters volume management plans against.
// All volumes are in nanoliters.
type Config struct {
	// MaxCapacity is the maximum volume a reservoir or functional unit can
	// hold (the paper's "default maximum", 100 nl).
	MaxCapacity float64
	// LeastCount is the minimum transport resolution: every dispensed
	// volume must be an integer multiple of it and no dispense may be
	// smaller (the paper assumes 100 pl = 0.1 nl, per Unger et al.).
	LeastCount float64
	// MinNodeVolume optionally raises the minimum *total input* volume for
	// specific node kinds (the paper notes separators may need more fluid
	// than the least count to operate).
	MinNodeVolume map[dag.Kind]float64
	// OutputSkew bounds how far LP may skew one output against another:
	// every output must lie within [1-OutputSkew, 1+OutputSkew] times the
	// reference output (§3.2's optional relative output-to-output
	// constraints). Zero disables the constraints.
	OutputSkew float64
	// MaxAttempts bounds the transform-and-resolve iterations of the
	// Fig. 6 hierarchy. Zero selects 16.
	MaxAttempts int
	// MaxFluidNodes, when nonzero, bounds the number of wet nodes the
	// transformed DAG may contain; cascading/replication beyond it fails
	// compilation (the paper: "the replicated code may exceed the PLoC's
	// resources. In such cases, compilation fails.").
	MaxFluidNodes int
	// SafetyMargin is the over-provisioning fraction ε for imperfect
	// fluidics: every non-leaf node plans to produce (1+ε)× what its
	// consumers draw, so runs tolerate metering jitter, dead volume, and
	// evaporation without regeneration. The margin scales all of a node's
	// in-edges uniformly (mix ratios are preserved) and the dispensing
	// bottleneck still saturates at MaxCapacity (no overflow); the cost is
	// proportionally smaller absolute volumes and ε-waste per level. Must
	// be in [0, 1); 0 (the default) reproduces the paper's exact-flow
	// plans.
	SafetyMargin float64
	// Budget, when non-nil, bounds and cancels planning cooperatively:
	// DAGSolve charges a work unit per node visit and per dispensed
	// edge, the LP path charges one per simplex pivot, and every entry
	// point polls it at its boundaries. A tripped budget surfaces as a
	// typed error (budget.ErrCancelled / ErrDeadline / ErrExhausted).
	// The meter is config, not plan state: it is never recorded in
	// plans, journals, or snapshots.
	Budget *budget.Meter
}

// DefaultConfig returns the paper's evaluation parameters: 100 nl maximum
// capacity and 0.1 nl least count.
func DefaultConfig() Config {
	return Config{
		MaxCapacity: 100,
		LeastCount:  0.1,
		OutputSkew:  0.10,
	}
}

// MaxSkew is the largest mix ratio the hardware can execute directly:
// MaxCapacity / LeastCount (§3.4.1).
func (c Config) MaxSkew() float64 { return c.MaxCapacity / c.LeastCount }

// TriggerSkew is the mix skew above which the Fig. 6 hierarchy blames
// an underflow on the ratio and cascades, rather than on numerous uses
// and replicates: sqrt(MaxSkew).
func (c Config) TriggerSkew() float64 { return math.Sqrt(c.MaxSkew()) }

func (c Config) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 16
}

// Validate checks that the configuration is physically meaningful.
func (c Config) Validate() error {
	switch {
	case !(c.MaxCapacity > 0) || math.IsInf(c.MaxCapacity, 0):
		return fmt.Errorf("core: MaxCapacity must be positive and finite, got %v", c.MaxCapacity)
	case !(c.LeastCount > 0) || math.IsInf(c.LeastCount, 0):
		return fmt.Errorf("core: LeastCount must be positive and finite, got %v", c.LeastCount)
	case c.LeastCount > c.MaxCapacity:
		return fmt.Errorf("core: LeastCount %v exceeds MaxCapacity %v", c.LeastCount, c.MaxCapacity)
	case c.OutputSkew < 0 || c.OutputSkew >= 1:
		return fmt.Errorf("core: OutputSkew must be in [0, 1), got %v", c.OutputSkew)
	case c.SafetyMargin < 0 || c.SafetyMargin >= 1 || math.IsNaN(c.SafetyMargin):
		return fmt.Errorf("core: SafetyMargin must be in [0, 1), got %v", c.SafetyMargin)
	}
	return nil
}

// MinFor reports the minimum total-input volume required at node n: the
// configured per-kind FFU minimum when it exceeds the least count, else
// the least count itself. Exported so the independent certificate
// checker (internal/certify) enforces exactly the thresholds the
// solvers planned against.
func (c Config) MinFor(n *dag.Node) float64 {
	if m, ok := c.MinNodeVolume[n.Kind]; ok && m > c.LeastCount {
		return m
	}
	return c.LeastCount
}
