package quality_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/quality"
)

func mustParse(t *testing.T, s string) *cnf.Formula {
	t.Helper()
	f, err := cnf.ParseDIMACSString(s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestExactCountFull(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"p cnf 2 1\n1 2 0\n", 3},                                     // x1 ∨ x2
		{"p cnf 2 2\n1 0\n-2 0\n", 1},                                 // x1 ∧ ¬x2
		{"p cnf 3 1\n1 2 0\n", 6},                                     // free x3 doubles
		{"p cnf 12 4\n1 2 3 0\n4 5 6 0\n7 8 9 0\n10 11 12 0\n", 2401}, // 7^4
		{"p cnf 1 2\n1 0\n-1 0\n", 0},                                 // unsat
	}
	for _, tc := range cases {
		got, err := quality.ExactCount(mustParse(t, tc.in), nil, quality.CountLimits{})
		if err != nil {
			t.Fatalf("%q: %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("%q: count %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestExactCountProjected(t *testing.T) {
	cases := []struct {
		in   string
		proj []int
		want float64
	}{
		// x1 ∨ x2 projected on x1: both values extend.
		{"p cnf 2 1\n1 2 0\n", []int{1}, 2},
		// x1 ∧ ¬x2 projected on x2: only false.
		{"p cnf 2 2\n1 0\n-2 0\n", []int{2}, 1},
		// 7^4 instance projected on one variable per clause: all 16 patterns.
		{"p cnf 12 4\n1 2 3 0\n4 5 6 0\n7 8 9 0\n10 11 12 0\n", []int{1, 4, 7, 10}, 16},
		// xor chain x1⊕x2=1 projected on x1: 2.
		{"p cnf 2 2\n1 2 0\n-1 -2 0\n", []int{1}, 2},
		// Projection declared in the formula itself.
		{"c ind 1 4 7 10 0\np cnf 12 4\n1 2 3 0\n4 5 6 0\n7 8 9 0\n10 11 12 0\n", []int{1, 4, 7, 10}, 16},
	}
	for _, tc := range cases {
		got, err := quality.ExactCount(mustParse(t, tc.in), tc.proj, quality.CountLimits{})
		if err != nil {
			t.Fatalf("%q: %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("%q proj %v: count %v, want %v", tc.in, tc.proj, got, tc.want)
		}
	}
}

func TestExactCountAssume(t *testing.T) {
	cases := []struct {
		in     string
		proj   []int
		assume []cnf.Lit
		want   float64
	}{
		// x1 ∨ x2 given x1: x2 free.
		{"p cnf 2 1\n1 2 0\n", nil, []cnf.Lit{1}, 2},
		// x1 ∨ x2 given ¬x1: only x2.
		{"p cnf 2 1\n1 2 0\n", nil, []cnf.Lit{-1}, 1},
		// 7^4 instance given one pinned clause-satisfier: 7^3 × 4 (the
		// pinned clause still has 2^2 free settings of its other two vars).
		{"p cnf 12 4\n1 2 3 0\n4 5 6 0\n7 8 9 0\n10 11 12 0\n", nil, []cnf.Lit{1}, 4 * 343},
		// Same instance projected, given the first projected var true.
		{"p cnf 12 4\n1 2 3 0\n4 5 6 0\n7 8 9 0\n10 11 12 0\n", []int{1, 4, 7, 10}, []cnf.Lit{1}, 8},
		// Contradicting the only clause: zero, not an error.
		{"p cnf 2 1\n1 2 0\n", nil, []cnf.Lit{-1, -2}, 0},
		// Empty assumption set falls through to ExactCount.
		{"p cnf 2 1\n1 2 0\n", nil, nil, 3},
	}
	for _, tc := range cases {
		got, err := quality.ExactCountAssume(mustParse(t, tc.in), tc.proj, tc.assume, quality.CountLimits{})
		if err != nil {
			t.Fatalf("%q assume %v: %v", tc.in, tc.assume, err)
		}
		if got != tc.want {
			t.Errorf("%q assume %v: count %v, want %v", tc.in, tc.assume, got, tc.want)
		}
	}
	if _, err := quality.ExactCountAssume(mustParse(t, "p cnf 2 1\n1 2 0\n"), nil,
		[]cnf.Lit{5}, quality.CountLimits{}); err == nil {
		t.Error("out-of-range assumption was accepted")
	}
}

func TestExactCountLimits(t *testing.T) {
	f := mustParse(t, "p cnf 2 1\n1 2 0\n")
	if _, err := quality.ExactCount(f, nil, quality.CountLimits{MaxVars: 1}); !errors.Is(err, quality.ErrTooLarge) {
		t.Fatalf("MaxVars violation: got %v, want ErrTooLarge", err)
	}
	if _, err := quality.ExactCount(f, []int{5}, quality.CountLimits{}); err == nil {
		t.Fatal("accepted out-of-range projection")
	}
}

// TestChiSquareSurvival pins the p-value implementation to standard
// chi-square critical values (0.05 upper tail).
func TestChiSquareSurvival(t *testing.T) {
	cases := []struct {
		stat float64
		dof  int
		want float64
	}{
		{3.841, 1, 0.05},
		{5.991, 2, 0.05},
		{18.307, 10, 0.05},
		{124.342, 100, 0.05},
		{0, 5, 1},
	}
	for _, tc := range cases {
		got := quality.ChiSquareSurvival(tc.stat, tc.dof)
		if math.Abs(got-tc.want) > 2e-4 {
			t.Errorf("Q(%v, dof=%d) = %v, want ~%v", tc.stat, tc.dof, got, tc.want)
		}
	}
	// Monotone in the statistic.
	if quality.ChiSquareSurvival(50, 10) >= quality.ChiSquareSurvival(10, 10) {
		t.Error("survival not decreasing in the statistic")
	}
}

func TestChiSquareUniform(t *testing.T) {
	// Perfectly uniform observations over a fully covered space: the
	// statistic is 0 and p = 1.
	stat, dof, p := quality.ChiSquareUniform([]int{25, 25, 25, 25}, 4)
	if stat != 0 || dof != 3 || p != 1 {
		t.Fatalf("uniform: stat=%v dof=%d p=%v", stat, dof, p)
	}
	// Grossly skewed observations: p must collapse.
	_, _, pSkew := quality.ChiSquareUniform([]int{97, 1, 1, 1}, 4)
	if pSkew > 1e-9 {
		t.Fatalf("skewed counts got p=%v, want ~0", pSkew)
	}
	// Unseen cells are penalized: full coverage beats partial coverage at
	// the same sample size.
	_, _, pFull := quality.ChiSquareUniform([]int{25, 25, 25, 25}, 4)
	_, _, pHalf := quality.ChiSquareUniform([]int{50, 50}, 4)
	if pHalf >= pFull {
		t.Fatalf("missing cells not penalized: full=%v half=%v", pFull, pHalf)
	}
	// Degenerate inputs.
	if _, _, p := quality.ChiSquareUniform(nil, 4); p != 1 {
		t.Fatal("no samples must be p=1")
	}
}

func TestChiSquareUniformIsSmall(t *testing.T) {
	// Genuinely uniform draws over 8 cells: the statistic sits near dof.
	r := rand.New(rand.NewSource(1))
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		counts[r.Intn(8)]++
	}
	stat, dof, p := quality.ChiSquareUniform(counts, 8)
	if dof != 7 {
		t.Fatalf("dof = %d want 7", dof)
	}
	// 99.9th percentile of chi²(7) ≈ 24.3.
	if stat > 24.3 || p < 1e-3 {
		t.Errorf("chi² = %.1f (p=%.3g) too large for uniform data", stat, p)
	}
}

func TestChiSquareSkewedIsLarge(t *testing.T) {
	// Every draw lands on one of 8 cells.
	stat, _, p := quality.ChiSquareUniform([]int{8000}, 8)
	if stat < 1000 || p > 1e-20 {
		t.Errorf("chi² = %.1f (p=%.3g) too small for fully-skewed data", stat, p)
	}
}

func TestZeroSampleEdgeCases(t *testing.T) {
	if stat, dof, p := quality.ChiSquareUniform(nil, 8); stat != 0 || dof != 0 || p != 1 {
		t.Errorf("empty chi-square = (%v, %d, %v), want (0, 0, 1)", stat, dof, p)
	}
	if c := quality.Coverage(0, 8); c != 0 {
		t.Errorf("empty coverage = %v", c)
	}
	if c := quality.Coverage(3, 0); c != 0 {
		t.Errorf("coverage of an unknown space = %v, want 0", c)
	}
	if r := quality.Evaluate(nil, 8); r.Distinct != 0 || r.Samples != 0 || r.P != 1 {
		t.Errorf("empty report %+v", r)
	}
}

func TestEvaluate(t *testing.T) {
	r := quality.Evaluate([]int{10, 12, 9, 11}, 4)
	if r.Distinct != 4 || r.Samples != 42 || r.Coverage != 1 {
		t.Fatalf("report %+v", r)
	}
	if r.P <= 0.5 {
		t.Fatalf("near-uniform tallies scored p=%v", r.P)
	}
	half := quality.Evaluate([]int{10, 12}, 4)
	if half.Coverage != 0.5 {
		t.Fatalf("coverage %v, want 0.5", half.Coverage)
	}
}
