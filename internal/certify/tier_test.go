package certify

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// intervalOperand draws a float64 from the places rounding goes wrong:
// signed zeros, subnormals, binade edges and their neighbours, values
// near the overflow threshold, and arbitrary finite bit patterns.
func intervalOperand(r *rand.Rand) float64 {
	var v float64
	switch r.Intn(8) {
	case 0:
		v = [...]float64{0, math.Copysign(0, -1), 1, math.SmallestNonzeroFloat64,
			0x1p-1022, math.MaxFloat64, 1e-5, 1e-6, 100}[r.Intn(9)]
	case 1: // subnormal
		v = math.Float64frombits(uint64(r.Int63n(1 << 52)))
	case 2: // a binade edge or one of its neighbours
		v = math.Ldexp(1, r.Intn(2098)-1074)
		switch r.Intn(3) {
		case 0:
			v = math.Nextafter(v, 0)
		case 1:
			v = math.Nextafter(v, math.Inf(1))
		}
	case 3: // near overflow
		v = math.MaxFloat64 * (0.5 + r.Float64()/2)
	case 4: // arbitrary finite bits
		for {
			v = math.Float64frombits(r.Uint64())
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				break
			}
		}
	default: // the magnitudes volumes, tolerances and LP coefficients take
		v = math.Ldexp(r.Float64(), r.Intn(80)-40)
	}
	if r.Intn(2) == 0 {
		v = -v
	}
	return v
}

func intervalOf(r *rand.Rand) num {
	a, b := intervalOperand(r), intervalOperand(r)
	if r.Intn(3) == 0 {
		b = a
	}
	return num{lo: min(a, b), hi: max(a, b)}
}

// TestIntervalEnclosesExact holds the float tier's operations to their
// contract: the result of an operation on intervals contains the exact
// (big.Rat) result at every combination of operand endpoints, which
// bound the exact result set of +, −, × and |·|, unless the result is
// poisoned. An exact result beyond the float64 range can only be met
// poisoned, so overflow is covered by the same check.
func TestIntervalEnclosesExact(t *testing.T) {
	ft := &tier{float: true}
	r := rand.New(rand.NewSource(1))
	exactOf := func(v float64) *big.Rat { return new(big.Rat).SetFloat64(v) }
	encloses := func(res num, want *big.Rat) bool {
		if math.IsNaN(res.lo) && math.IsNaN(res.hi) {
			return true // poisoned: proves nothing
		}
		if math.IsNaN(res.lo) || math.IsNaN(res.hi) || math.IsInf(res.lo, 0) || math.IsInf(res.hi, 0) {
			return false // half-poisoned or infinite bounds break the invariant
		}
		return exactOf(res.lo).Cmp(want) <= 0 && want.Cmp(exactOf(res.hi)) <= 0
	}
	ops := []struct {
		name string
		op   func(a, b num) num
		want func(x, y *big.Rat) *big.Rat
	}{
		{"add", ft.add, func(x, y *big.Rat) *big.Rat { return new(big.Rat).Add(x, y) }},
		{"sub", ft.sub, func(x, y *big.Rat) *big.Rat { return new(big.Rat).Sub(x, y) }},
		{"mul", ft.mul, func(x, y *big.Rat) *big.Rat { return new(big.Rat).Mul(x, y) }},
		{"abs", func(a, _ num) num { return ft.abs(a) }, func(x, _ *big.Rat) *big.Rat { return new(big.Rat).Abs(x) }},
		{"pos", func(a, _ num) num { return ft.pos(a) }, func(x, _ *big.Rat) *big.Rat {
			if x.Sign() < 0 {
				return new(big.Rat)
			}
			return x
		}},
	}
	poisonedSeen := 0
	for i := 0; i < 5000; i++ {
		a, b := intervalOf(r), intervalOf(r)
		for _, o := range ops {
			res := o.op(a, b)
			if math.IsNaN(res.lo) {
				poisonedSeen++
			}
			for _, x := range []float64{a.lo, a.hi} {
				for _, y := range []float64{b.lo, b.hi} {
					if want := o.want(exactOf(x), exactOf(y)); !encloses(res, want) {
						t.Fatalf("%s([%g, %g], [%g, %g]) = [%g, %g] misses exact %s at (%g, %g)",
							o.name, a.lo, a.hi, b.lo, b.hi, res.lo, res.hi, want.FloatString(20), x, y)
					}
				}
			}
		}
	}
	if poisonedSeen == 0 {
		t.Error("no operation overflowed: the overflow-to-poison path went untested")
	}

	// A non-finite operand poisons, and a poisoned value proves nothing.
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		p := ft.of(v)
		if !math.IsNaN(p.lo) || !math.IsNaN(p.hi) {
			t.Errorf("of(%v) = [%g, %g], want poisoned", v, p.lo, p.hi)
		}
		for _, res := range []num{ft.add(p, ft.of(1)), ft.sub(ft.of(1), p), ft.mul(p, ft.of(0)), ft.abs(p), ft.pos(p)} {
			if !math.IsNaN(res.lo) || !math.IsNaN(res.hi) {
				t.Errorf("an operation on of(%v) gave [%g, %g], want poisoned", v, res.lo, res.hi)
			}
		}
		if !ft.exceeds(p, ft.of(0), 1e-5) || !ft.exceeds(ft.of(0), p, 1e-5) || !ft.above(p, p) {
			t.Errorf("a comparison with of(%v) was proven", v)
		}
	}
	// A comparison is proven only where the intervals do not overlap.
	if ft.above(ft.of(1), ft.of(2)) || !ft.above(ft.of(2), ft.of(1)) || ft.above(ft.of(1), ft.of(1)) {
		t.Error("point comparisons misdecided")
	}
	one := ft.of(1)
	if !ft.above(one, ft.sub(ft.of(1), ft.of(0))) {
		t.Error("1 ≤ 1−0 proven across a widened bound: the widening is missing")
	}
}
