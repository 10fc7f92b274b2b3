package certify

import (
	"math"
	"math/big"
	"testing"

	"aquavol/internal/assays"
	"aquavol/internal/core"
)

// The dyadic representation must agree exactly with big.Rat — same
// float64→exact conversion, same results under +, −, ×, compare — on
// values spanning the magnitudes the checker sees (volumes, tolerance
// bands, LP coefficients, and their products).
func TestExactMatchesBigRat(t *testing.T) {
	vals := []float64{
		0, 1, -1, 0.5, -0.5, 37.5, 100, 1e-6, -1e-6, 1e-9,
		2.5e-7, 1.0 / 3.0, math.Pi, -math.Pi, 1e12, math.SmallestNonzeroFloat64,
	}
	toRat := func(v float64) *big.Rat { return new(big.Rat).SetFloat64(v) }
	for _, a := range vals {
		if got, want := rat(a).Rat(), toRat(a); got.Cmp(want) != 0 {
			t.Fatalf("rat(%g) = %s, want %s", a, got, want)
		}
		for _, b := range vals {
			ea, eb := rat(a), rat(b)
			ra, rb := toRat(a), toRat(b)
			if got, want := new(exact).Add(ea, eb).Rat(), new(big.Rat).Add(ra, rb); got.Cmp(want) != 0 {
				t.Errorf("%g + %g = %s, want %s", a, b, got, want)
			}
			if got, want := new(exact).Sub(ea, eb).Rat(), new(big.Rat).Sub(ra, rb); got.Cmp(want) != 0 {
				t.Errorf("%g - %g = %s, want %s", a, b, got, want)
			}
			if got, want := new(exact).Mul(ea, eb).Rat(), new(big.Rat).Mul(ra, rb); got.Cmp(want) != 0 {
				t.Errorf("%g * %g = %s, want %s", a, b, got, want)
			}
			if got, want := ea.Cmp(eb), ra.Cmp(rb); got != want {
				t.Errorf("cmp(%g, %g) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// Aliasing: z may be x, y, or both, exactly as with math/big.
func TestExactAliasing(t *testing.T) {
	z := rat(37.5)
	z.Add(z, z)
	if got := z.Rat().FloatString(1); got != "75.0" {
		t.Fatalf("z.Add(z, z) = %s, want 75.0", got)
	}
	z.Mul(z, z)
	if got := z.Rat().FloatString(1); got != "5625.0" {
		t.Fatalf("z.Mul(z, z) = %s, want 5625.0", got)
	}
	z.Sub(z, z)
	if z.Sign() != 0 {
		t.Fatalf("z.Sub(z, z) = %s, want 0", z.Rat())
	}
	// Mixed exponents through the shared-scratch alignment path.
	z = rat(0.25)
	z.Add(z, rat(1<<20))
	if got := z.Rat().FloatString(2); got != "1048576.25" {
		t.Fatalf("0.25 + 2^20 = %s", got)
	}
}

// The checker's cost contract (see EXPERIMENTS.md E16): certification
// must stay a small fraction of managed planning on solve-dominated
// assays. These benchmarks record the per-plan cost of a passing plan,
// which the float tier proves — run with -bench to compare against
// Manage.
func BenchmarkCheckPlanGlucose(b *testing.B) {
	res, err := core.Manage(assays.GlucoseDAG(), core.DefaultConfig(), core.ManageOptions{})
	if err != nil {
		b.Fatal(err)
	}
	av := core.StaticAvailability(core.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := CheckPlan(res.Plan, core.DefaultConfig(), av); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckPlanEnzyme4(b *testing.B) {
	res, err := core.Manage(assays.EnzymeDAG(4), core.DefaultConfig(), core.ManageOptions{})
	if err != nil {
		b.Fatal(err)
	}
	av := core.StaticAvailability(core.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := CheckPlan(res.Plan, core.DefaultConfig(), av); err != nil {
			b.Fatal(err)
		}
	}
}
