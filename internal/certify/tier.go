package certify

import (
	"fmt"
	"math"

	"aquavol/internal/budget"
)

// A tier is the arithmetic one pass of the check list runs in. Every
// check is written once, against the tier's operations, and runs in
// one of two tiers:
//
//   - the float tier holds each value as a float64 interval [lo, hi]
//     that encloses the exact value. Every operation rounds to nearest
//     and then widens its result outward by one ulp (math.Nextafter),
//     and the exact result of an operation on finite floats lies
//     strictly between the neighbours of its rounded value, so the
//     enclosure holds by induction. A fused multiply-add rounds once
//     where two operations would round twice, so FMA fusion only
//     tightens it. A comparison is proven only when the intervals do
//     not overlap, and any non-finite operand or result poisons the
//     interval (NaN bounds), which proves nothing. The float tier
//     therefore can only prove a pass; it never renders a violation.
//   - the exact tier holds each value as an exact dyadic rational
//     (dyadic.go) and decides every comparison.
//
// The float tier charges no work units while it runs; it counts them,
// and the caller charges that count only once the tier has proven a
// pass (see proven). Otherwise the exact tier runs from the start,
// charging the meter as it goes. Either way a meter sees the same
// units, in the same order, and trips on the same unit.
//
// The tier is a value that selects the arithmetic, not a type
// parameter: fluidvet's effect inference counts a method call on a
// type parameter as dynamic dispatch, while these calls are static,
// so CheckPlan's parallel-safety certificate stays inferred.
type tier struct {
	// float selects interval arithmetic.
	float bool
	// meter is charged by the exact tier.
	meter *budget.Meter
	// units counts the charges the float tier withheld.
	units int64
}

// num is one value a check computes: x in the exact tier, the
// enclosing interval [lo, hi] in the float tier. A float-tier num is
// finite at both ends or NaN at both ends (poisoned).
type num struct {
	x      *exact
	lo, hi float64
}

func poisoned() num { return num{lo: math.NaN(), hi: math.NaN()} }

// widen rounds an interval's bounds outward by one ulp each, poisoning
// it when a bound is not finite.
func widen(lo, hi float64) num {
	lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
	if !(lo >= -math.MaxFloat64 && hi <= math.MaxFloat64) {
		return poisoned()
	}
	return num{lo: lo, hi: hi}
}

// of is the value of a float64: exactly v in either tier (callers have
// rejected NaN and ±Inf where the exact tier would meet them).
func (t *tier) of(v float64) num {
	if !t.float {
		return num{x: rat(v)}
	}
	if math.IsInf(v, 0) {
		return poisoned()
	}
	return num{lo: v, hi: v}
}

func (t *tier) add(a, b num) num {
	if !t.float {
		return num{x: new(exact).Add(a.x, b.x)}
	}
	return widen(a.lo+b.lo, a.hi+b.hi)
}

func (t *tier) sub(a, b num) num {
	if !t.float {
		return num{x: new(exact).Sub(a.x, b.x)}
	}
	return widen(a.lo-b.hi, a.hi-b.lo)
}

func (t *tier) mul(a, b num) num {
	if !t.float {
		return num{x: new(exact).Mul(a.x, b.x)}
	}
	p, q, r, s := a.lo*b.lo, a.lo*b.hi, a.hi*b.lo, a.hi*b.hi
	return widen(min(p, q, r, s), max(p, q, r, s))
}

func (t *tier) abs(a num) num {
	if !t.float {
		return num{x: new(exact).Abs(a.x)}
	}
	switch {
	case a.lo >= 0:
		return a
	case a.hi <= 0:
		return num{lo: -a.hi, hi: -a.lo}
	case a.lo < 0: // straddles zero
		return num{hi: max(-a.lo, a.hi)}
	}
	return a // poisoned
}

// pos is max(a, 0).
func (t *tier) pos(a num) num {
	if !t.float {
		if a.x.Sign() > 0 {
			return a
		}
		return num{x: new(exact)}
	}
	return num{lo: max(a.lo, 0), hi: max(a.hi, 0)}
}

// above reports whether a > b may hold. The exact tier decides it; the
// float tier answers false only where it proves a ≤ b.
func (t *tier) above(a, b num) bool {
	if !t.float {
		return a.x.Cmp(b.x) > 0
	}
	return !(a.hi <= b.lo)
}

// exceeds reports whether a > b + tol·(1+|b|) may hold: the one
// comparison every check reduces to. The operands are exact; only the
// tolerance band is approximate, and it is explicit.
func (t *tier) exceeds(a, b num, tol float64) bool {
	band := t.mul(t.of(tol), t.add(t.abs(b), t.of(1)))
	return t.above(a, t.add(b, band))
}

// differs reports whether |a − b| > tol·(1+|b|) may hold.
func (t *tier) differs(a, b num, tol float64) bool {
	return t.exceeds(a, b, tol) || t.exceeds(b, a, tol)
}

// str renders a value for a violation's detail.
func (t *tier) str(a num) string {
	if !t.float {
		return a.x.FloatString(9)
	}
	return fmt.Sprintf("[%g, %g]", a.lo, a.hi)
}

// charge accounts one work unit.
func (t *tier) charge() error {
	if t.float {
		t.units++
		return nil
	}
	return t.meter.Charge(1)
}

// proven charges m, one unit at a time, the units a float tier that
// proved a pass withheld, so the meter trips exactly where the exact
// tier's charges would have tripped it, with the same error.
func (t *tier) proven(m *budget.Meter) error {
	for i := int64(0); i < t.units; i++ {
		if err := m.Charge(1); err != nil {
			return err
		}
	}
	return nil
}
