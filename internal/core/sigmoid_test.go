package core

import (
	"math"
	"testing"
)

// TestSigmoid32Bound holds sigmoid32 to its stated error against float64
// σ on every 1009th float32 bit pattern, which covers every exponent of
// both signs and so every value V can reach: relative error below 2^−22
// where σ(v) is a normal float32, absolute error below 2^−126 below that.
// NaN maps to NaN, ±Inf to 1 and 0, and σ(0) is exactly 1/2.
func TestSigmoid32Bound(t *testing.T) {
	check := func(v float32) {
		want := 1 / (1 + math.Exp(-float64(v)))
		got := float64(sigmoid32(v))
		if want >= 0x1p-126 {
			if e := math.Abs(got-want) / want; e >= 0x1p-22 {
				t.Fatalf("σ(%g) = %g, want %g: relative error %g", v, got, want, e)
			}
		} else if e := math.Abs(got - want); e >= 0x1p-126 {
			t.Fatalf("σ(%g) = %g, want %g: absolute error %g", v, got, want, e)
		}
	}
	for b := uint64(0); b < 1<<32; b += 1009 {
		if v := math.Float32frombits(uint32(b)); !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
			check(v)
		}
	}
	for _, v := range []float32{0, float32(math.Copysign(0, -1)), math.MaxFloat32, -math.MaxFloat32,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, expLo, expHi, -expLo, -expHi} {
		check(v)
	}
	if got := sigmoid32(0); got != 0.5 {
		t.Errorf("σ(0) = %g, want 0.5", got)
	}
	if got := sigmoid32(float32(math.Inf(1))); got != 1 {
		t.Errorf("σ(+Inf) = %g, want 1", got)
	}
	if got := sigmoid32(float32(math.Inf(-1))); got != 0 {
		t.Errorf("σ(-Inf) = %g, want 0", got)
	}
	if got := sigmoid32(float32(math.NaN())); !math.IsNaN(float64(got)) {
		t.Errorf("σ(NaN) = %g, want NaN", got)
	}
}
