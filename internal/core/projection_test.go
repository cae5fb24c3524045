package core

import (
	"testing"
	"time"

	"repro/internal/bitblast"
	"repro/internal/cnf"
	"repro/internal/tensor"
)

// ProjectedSolutionAt returns the i-th unique solution's projected
// assignment, in projection order (indices [0, UniqueCount())): its key in
// the dedup pool, unpacked. It returns nil when the session has no
// projection.
func (s *Sampler) ProjectedSolutionAt(i int) []bool {
	if s.projection == nil {
		return nil
	}
	return bitblast.UnpackRow(make([]bool, len(s.projection)), s.pool.Row(i))
}

// projFormula: four disjoint 3-literal clauses over 12 variables (7^4
// full models), projected onto one variable per clause — 2^4 − ... the
// projected space is every 4-bit pattern reachable by some model, which is
// all 16 (each projected variable can take either value independently
// given the two free variables in its clause).
const projFormula = "c ind 1 4 7 10 0\np cnf 12 4\n1 2 3 0\n4 5 6 0\n7 8 9 0\n10 11 12 0\n"

// TestProjectedDifferential is the continuous scheduler's projected-dedup
// contract: every projected-distinct solution it reports extends to a
// full model that satisfies the full CNF, its stored projected signature
// matches projecting that full model, and no projected signature is ever
// double-counted — deterministically across worker counts.
func TestProjectedDifferential(t *testing.T) {
	f := mustFormula(t, projFormula)
	run := func(dev tensor.Device) ([]string, []string) {
		s := newSampler(t, f, Config{BatchSize: 128, Seed: 9, Device: dev})
		s.SampleUntil(16, 10*time.Second)
		var psigs, wits []string
		for i := 0; i < s.UniqueCount(); i++ {
			full := s.FullAssignmentAt(i)
			if !f.Sat(full) {
				t.Fatalf("witness %d does not satisfy the full CNF", i)
			}
			proj := s.ProjectedSolutionAt(i)
			if len(proj) != 4 {
				t.Fatalf("projected width %d, want 4", len(proj))
			}
			for k, v := range f.Projection {
				if proj[k] != full[v-1] {
					t.Fatalf("witness %d: stored projected bit %d disagrees with the full model", i, k)
				}
			}
			psigs = append(psigs, fmtBits(proj))
			wits = append(wits, fmtBits(full))
		}
		seen := map[string]bool{}
		for _, sig := range psigs {
			if seen[sig] {
				t.Fatalf("projected signature %s double-counted", sig)
			}
			seen[sig] = true
		}
		return psigs, wits
	}
	seqSigs, seqWits := run(tensor.Sequential())
	parSigs, parWits := run(tensor.ParallelN(4))
	if len(seqSigs) != 16 {
		t.Fatalf("found %d projected-distinct solutions, want all 16", len(seqSigs))
	}
	if len(parSigs) != len(seqSigs) {
		t.Fatalf("worker counts diverged: %d vs %d solutions", len(seqSigs), len(parSigs))
	}
	for i := range seqSigs {
		if seqSigs[i] != parSigs[i] || seqWits[i] != parWits[i] {
			t.Fatalf("projected stream differs across worker counts at %d", i)
		}
	}
}

// TestProjectedRoundMode: the paper's round loop shares the
// projected dedup path and must satisfy the same contract.
func TestProjectedRoundMode(t *testing.T) {
	f := mustFormula(t, projFormula)
	s := newSampler(t, f, Config{BatchSize: 128, Seed: 3})
	s.SampleRounds(16, 10*time.Second)
	if s.UniqueCount() != 16 {
		t.Fatalf("round mode found %d projected-distinct solutions, want 16", s.UniqueCount())
	}
	seen := map[string]bool{}
	for i := 0; i < s.UniqueCount(); i++ {
		if !f.Sat(s.FullAssignmentAt(i)) {
			t.Fatalf("witness %d does not satisfy the CNF", i)
		}
		sig := fmtBits(s.ProjectedSolutionAt(i))
		if seen[sig] {
			t.Fatalf("projected signature %s double-counted", sig)
		}
		seen[sig] = true
	}
}

// TestProjectionFromFormulaDefault: a nil Config.Projection inherits the
// formula's declared "c ind" set; an explicit projection overrides it.
func TestProjectionFromFormulaDefault(t *testing.T) {
	f := mustFormula(t, projFormula)
	s := newSampler(t, f, Config{BatchSize: 64, Seed: 1})
	if got := s.Projection(); len(got) != 4 || got[0] != 1 || got[3] != 10 {
		t.Fatalf("inherited projection %v, want [1 4 7 10]", got)
	}
	o := newSampler(t, f, Config{BatchSize: 64, Seed: 1, Projection: []int{2, 3}})
	if got := o.Projection(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("explicit projection %v, want [2 3]", got)
	}
}

// TestProjectionValidation: out-of-range and duplicate projection
// variables must fail session construction, not corrupt sampling.
func TestProjectionValidation(t *testing.T) {
	f := mustFormula(t, "p cnf 3 1\n1 2 3 0\n")
	if _, err := NewFromCNF(f, Config{Projection: []int{1, 99}}); err == nil {
		t.Fatal("accepted out-of-range projection variable")
	}
	if _, err := NewFromCNF(f, Config{Projection: []int{2, 2}}); err == nil {
		t.Fatal("accepted duplicate projection variable")
	}
}

// TestProjectedFewerThanFull: projecting must only merge solutions — the
// projected-distinct count is bounded by the full-distinct count for the
// same sampling work, and equals the number of distinct projections of the
// full pool.
func TestProjectedFewerThanFull(t *testing.T) {
	raw := "p cnf 12 4\n1 2 3 0\n4 5 6 0\n7 8 9 0\n10 11 12 0\n"
	f := mustFormula(t, raw)
	full := newSampler(t, f, Config{BatchSize: 128, Seed: 5})
	full.SampleUntil(200, 10*time.Second)

	proj := newSampler(t, f, Config{BatchSize: 128, Seed: 5, Projection: []int{1, 4, 7, 10}})
	proj.SampleUntil(200, 10*time.Second)
	if proj.UniqueCount() > full.UniqueCount() {
		t.Fatalf("projected found %d > full %d", proj.UniqueCount(), full.UniqueCount())
	}
	if proj.UniqueCount() != 16 {
		t.Fatalf("projected-distinct = %d, want 16", proj.UniqueCount())
	}
}

// TestSolutionHitsAccounting: every valid retired candidate lands on
// exactly one solution's tally, so the tallies sum to the retired count
// and each is at least 1.
func TestSolutionHitsAccounting(t *testing.T) {
	f := mustFormula(t, projFormula)
	s := newSampler(t, f, Config{BatchSize: 64, Seed: 7})
	for i := 0; i < 50; i++ {
		s.ContinuousStep(0)
	}
	hits := s.SolutionHits()
	if len(hits) != s.UniqueCount() {
		t.Fatalf("%d tallies for %d solutions", len(hits), s.UniqueCount())
	}
	sum := 0
	for i, h := range hits {
		if h < 1 {
			t.Fatalf("solution %d has tally %d", i, h)
		}
		sum += h
	}
	if sum != s.Stats().Retired {
		t.Fatalf("tallies sum to %d, retired %d", sum, s.Stats().Retired)
	}
}

// TestProjectedSteadyStateZeroAllocs: the projected scheduler tick must
// stay allocation-free once the projected space is saturated (the dedup
// path only allocates when a new unique is retained).
func TestProjectedSteadyStateZeroAllocs(t *testing.T) {
	f := mustFormula(t, projFormula)
	s := newSampler(t, f, Config{BatchSize: 64, Seed: 4, Device: tensor.Sequential()})
	for i := 0; i < 60 && s.UniqueCount() < 16; i++ {
		s.ContinuousStep(0)
	}
	if s.UniqueCount() != 16 {
		t.Skipf("projected space not saturated (%d/16); alloc check needs steady state", s.UniqueCount())
	}
	allocs := testing.AllocsPerRun(50, func() { s.ContinuousStep(0) })
	if allocs != 0 {
		t.Errorf("steady-state projected tick allocates %.1f times per call, want 0", allocs)
	}
}

func init() {
	// Compile-time reminder that projFormula must parse with a projection;
	// the tests above rely on it.
	f, err := cnf.ParseDIMACSString(projFormula)
	if err != nil || len(f.Projection) != 4 {
		panic("projFormula must declare a 4-variable projection")
	}
}
