package quality_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/quality"
	"repro/internal/tensor"
)

// statCase is one exact-counted instance for the statistical smoke: the
// seed is fixed and the device sequential, so the sampler's stream — and
// therefore the chi-square score — is fully deterministic. The p-threshold
// is generous (1e-3) against observed values of 0.2–0.9, so the test is
// flake-free by construction and still catches a real uniformity collapse
// (a sampler that fixates on a subset of models scores p < 1e-20 at this
// budget).
type statCase struct {
	name   string
	dimacs string
	seed   int64
}

var statCases = []statCase{
	// Four disjoint 3-literal clauses, projected one variable per clause:
	// 16 projected models out of 7^4 full models.
	{"proj-or4", "c ind 1 4 7 10 0\np cnf 12 4\n1 2 3 0\n4 5 6 0\n7 8 9 0\n10 11 12 0\n", 2},
	// Three disjoint 2-literal clauses: 27 full models.
	{"or3", "p cnf 6 3\n1 2 0\n3 4 0\n5 6 0\n", 3},
	// Implication chain with a tail clause: 13 full models.
	{"chain", "p cnf 5 3\n1 -2 0\n2 3 0\n-3 4 5 0\n", 1},
}

// samplesBudget is the per-cell uniformity sample budget: chi-square at
// ~6 observations per model is the regime where a near-uniform sampler
// passes and a collapsed one cannot (the test statistic scales linearly in
// samples for fixed skew, so small budgets measure distributional shape,
// not the GD sampler's asymptotic bias).
const samplesBudget = 6

// TestSamplerStatisticalSmoke: on exact-counted instances the sampler must
// (a) cover the whole (projected) model space when run to saturation, and
// (b) be statistically consistent with uniform sampling at a bounded
// sample budget. Fixed seeds and a sequential device make both
// measurements deterministic; skipped under -short (it runs the sampler to
// exhaustion).
func TestSamplerStatisticalSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical smoke runs samplers to saturation; skipped in -short mode")
	}
	for _, tc := range statCases {
		t.Run(tc.name, func(t *testing.T) {
			f := mustParse(t, tc.dimacs)
			exact, err := quality.ExactCount(f, f.Projection, quality.CountLimits{})
			if err != nil {
				t.Fatal(err)
			}
			if exact <= 1 {
				t.Fatalf("degenerate exact count %v", exact)
			}

			// Uniformity at the bounded budget.
			p, err := core.CompileCNF(f)
			if err != nil {
				t.Fatal(err)
			}
			s, err := p.NewSampler(core.Config{BatchSize: 64, Seed: tc.seed, Device: tensor.Sequential()})
			if err != nil {
				t.Fatal(err)
			}
			// Stats().Retired == sum of the per-solution tallies in
			// continuous mode (see core's TestSolutionHitsAccounting).
			budget := samplesBudget * int(exact)
			for s.Stats().Retired < budget && !s.Exhausted() {
				s.ContinuousStep(0)
			}
			rep := quality.Evaluate(s.SolutionHits(), exact)
			t.Logf("%s: exact=%v samples=%d coverage=%.3f chi2=%.1f dof=%d p=%.3g",
				tc.name, exact, rep.Samples, rep.Coverage, rep.ChiSquare, rep.DoF, rep.P)
			if rep.P < 1e-3 {
				t.Errorf("uniformity: p=%.3g below the generous 1e-3 threshold (chi2=%.1f, dof=%d)",
					rep.P, rep.ChiSquare, rep.DoF)
			}

			// Coverage at saturation: every (projected) model must be found.
			s.SampleUntil(1<<30, 0)
			if !s.Exhausted() {
				t.Fatal("sampler did not saturate")
			}
			full := quality.Evaluate(s.SolutionHits(), exact)
			if full.Coverage != 1 {
				t.Errorf("coverage %.4f at saturation, want 1.0 (%d/%v models)",
					full.Coverage, full.Distinct, exact)
			}
			// Every reported distinct solution verifies against the CNF.
			for i := 0; i < s.UniqueCount(); i++ {
				if !f.Sat(s.FullAssignmentAt(i)) {
					t.Fatalf("solution %d does not satisfy the CNF", i)
				}
			}
		})
	}
}
