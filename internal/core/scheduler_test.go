package core

import (
	"testing"
	"time"

	"repro/internal/tensor"
)

// TestContinuousDeterministicAcrossDevices: the scheduler's retire,
// compaction and refill passes are sequential, so a given seed must
// produce the same solution stream on any device parallelism (run under
// -race in CI: the parallel arm also proves the tile-striped step is
// race-clean with the scheduler's per-row state).
func TestContinuousDeterministicAcrossDevices(t *testing.T) {
	// Four disjoint 3-literal clauses: 7^4 = 2401 solutions, so the pool is
	// nowhere near saturation at the target — any cross-device divergence
	// in retirement order, compaction or restart streams shows up as
	// differing streams instead of hiding behind an exhausted space.
	f := mustFormula(t, "p cnf 12 4\n1 2 3 0\n4 5 6 0\n7 8 9 0\n10 11 12 0\n")
	run := func(dev tensor.Device) []string {
		s := newSampler(t, f, Config{BatchSize: 256, Seed: 11, MaxAge: 3, Device: dev})
		s.SampleUntil(600, 10*time.Second)
		var sig []string
		for _, sol := range s.Solutions() {
			sig = append(sig, fmtBits(sol))
		}
		return sig
	}
	a := run(tensor.Sequential())
	b := run(tensor.ParallelN(4))
	if len(a) != len(b) {
		t.Fatalf("sequential found %d, parallel found %d", len(a), len(b))
	}
	if len(a) < 600 {
		t.Fatalf("only %d solutions found, want >= 600", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("solution streams differ across devices at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestContinuousDeterministicAcrossWorkerCounts is the parallel tick's
// core invariant: the solution stream and scheduler stats for a given seed
// are bit-identical at every worker count — tile ownership, the
// deterministic tile-ordered retire merge, and the in-order per-tile loss
// reduction together erase any trace of scheduling from the output.
func TestContinuousDeterministicAcrossWorkerCounts(t *testing.T) {
	f := mustFormula(t, "p cnf 12 4\n1 2 3 0\n4 5 6 0\n7 8 9 0\n10 11 12 0\n")
	run := func(dev tensor.Device) ([]string, Stats) {
		s := newSampler(t, f, Config{BatchSize: 256, Seed: 19, MaxAge: 3, Device: dev})
		st := s.SampleUntil(600, 10*time.Second)
		var sig []string
		for _, sol := range s.Solutions() {
			sig = append(sig, fmtBits(sol))
		}
		return sig, st
	}
	ref, refStats := run(tensor.ParallelN(1))
	if len(ref) < 600 {
		t.Fatalf("reference found only %d solutions, want >= 600", len(ref))
	}
	for _, w := range []int{2, 7, 16} {
		got, gotStats := run(tensor.ParallelN(w))
		if len(got) != len(ref) {
			t.Fatalf("%d workers found %d solutions, 1 worker found %d", w, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%d workers: stream diverged at %d: %s vs %s", w, i, got[i], ref[i])
			}
		}
		if gotStats.Retired != refStats.Retired || gotStats.Stalled != refStats.Stalled ||
			gotStats.Candidates != refStats.Candidates || gotStats.FinalLoss != refStats.FinalLoss {
			t.Errorf("%d workers: stats diverged: %+v vs %+v", w, gotStats, refStats)
		}
	}
}

// TestProjectedDeterministicAcrossWorkerCounts: the projected sweep path
// (VerifyMaskedProjectRange per tile) must honor the same worker-count
// invariance, including projected signatures and their full-model
// witnesses.
func TestProjectedDeterministicAcrossWorkerCounts(t *testing.T) {
	f := mustFormula(t, projFormula)
	run := func(dev tensor.Device) []string {
		s := newSampler(t, f, Config{BatchSize: 128, Seed: 23, Device: dev})
		s.SampleUntil(16, 10*time.Second)
		var sig []string
		for i := 0; i < s.UniqueCount(); i++ {
			sig = append(sig, fmtBits(s.ProjectedSolutionAt(i))+"|"+fmtBits(s.FullAssignmentAt(i)))
		}
		return sig
	}
	ref := run(tensor.ParallelN(1))
	if len(ref) != 16 {
		t.Fatalf("reference found %d projected-distinct solutions, want 16", len(ref))
	}
	for _, w := range []int{2, 7, 16} {
		got := run(tensor.ParallelN(w))
		if len(got) != len(ref) {
			t.Fatalf("%d workers found %d projected solutions, 1 worker found %d", w, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%d workers: projected stream diverged at %d", w, i)
			}
		}
	}
}

// TestContinuousRestartDeterminism: two samplers with the same seed must
// produce identical solution sequences tick by tick — in-place restarts
// draw from per-slot counters, not shared mutable state.
func TestContinuousRestartDeterminism(t *testing.T) {
	f := mustFormula(t, paperExample)
	// A vanishing learning rate freezes every trajectory: rows either
	// satisfy at birth (and retire at their first sweep) or sit unchanged
	// until the restart cap recycles them — exercising both retirement
	// paths deterministically.
	cfg := Config{BatchSize: 128, Seed: 3, MaxAge: 4, LearningRate: 1e-9}
	a := newSampler(t, f, cfg)
	b := newSampler(t, f, cfg)
	for tick := 0; tick < 40; tick++ {
		ga := a.ContinuousStep(0)
		gb := b.ContinuousStep(0)
		if ga != gb {
			t.Fatalf("tick %d: gains diverged (%d vs %d)", tick, ga, gb)
		}
	}
	as, bs := a.Solutions(), b.Solutions()
	if len(as) != len(bs) {
		t.Fatalf("pools diverged: %d vs %d", len(as), len(bs))
	}
	for i := range as {
		if fmtBits(as[i]) != fmtBits(bs[i]) {
			t.Fatalf("solution %d differs between identical runs", i)
		}
	}
	if a.stats.Retired != b.stats.Retired || a.stats.Stalled != b.stats.Stalled {
		t.Errorf("scheduler stats diverged: %+v vs %+v", a.stats, b.stats)
	}
	if a.stats.Stalled == 0 {
		t.Error("MaxAge=4 over 40 ticks never recycled a stalled row")
	}
}

// TestContinuousBeatsRoundPerUnitWork is the differential-oracle property
// from the scheduler's design: for the same seed and the same number of GD
// iterations, the continuous scheduler must retire at least as many unique
// solutions as the round-synchronous sampler — it wastes no iterations on
// already-satisfied rows and discards no near-converged rows at a barrier.
// Every solution must still verify against the original CNF.
func TestContinuousBeatsRoundPerUnitWork(t *testing.T) {
	f := mustFormula(t, paperExample)
	for _, seed := range []int64{1, 7, 42} {
		round := newSampler(t, f, Config{BatchSize: 128, Seed: seed})
		cont := newSampler(t, f, Config{BatchSize: 128, Seed: seed})
		const rounds = 4
		for i := 0; i < rounds; i++ {
			round.Round()
		}
		iters := round.Stats().Iterations
		for cont.Stats().Iterations < iters {
			cont.ContinuousStep(0)
		}
		rs, cs := round.Stats(), cont.Stats()
		if cs.Unique < rs.Unique {
			t.Errorf("seed %d: continuous found %d uniques in %d iterations, round mode %d",
				seed, cs.Unique, iters, rs.Unique)
		}
		for _, sol := range cont.Solutions() {
			if !f.Sat(cont.FullAssignment(sol)) {
				t.Fatalf("seed %d: continuous solution does not satisfy the CNF", seed)
			}
		}
	}
}

// TestContinuousSaturationCountsRetiredGain: SampleUntil with an
// unreachable target must terminate via the scheduler's zero-gain guard,
// which counts retired trajectories (not rounds), after finding the whole
// solution space.
func TestContinuousSaturationCountsRetiredGain(t *testing.T) {
	// x3 = x1 OR x2 = 1: exactly 3 solutions over the two inputs.
	f := mustFormula(t, "p cnf 3 4\n-3 1 2 0\n3 -1 0\n3 -2 0\n3 0\n")
	s := newSampler(t, f, Config{BatchSize: 32, Seed: 4})
	st := s.SampleUntil(10, 30*time.Second)
	if st.Unique != 3 {
		t.Fatalf("unique = %d want 3", st.Unique)
	}
	if !s.Exhausted() {
		t.Fatal("saturation guard did not trip on an exhausted space")
	}
	// The guard is calibrated in retired trajectories: it must have
	// consumed at least 64×batch candidates after the last gain.
	if st.Candidates < staleRetiresPerRow*32 {
		t.Errorf("guard tripped after only %d retired candidates, want >= %d",
			st.Candidates, staleRetiresPerRow*32)
	}
	if st.Retired == 0 || st.Sweeps == 0 {
		t.Errorf("scheduler stats not populated: %+v", st)
	}
	// Once exhausted, refill admits nothing: the active set drains.
	for i := 0; i < 64 && s.ActiveRows() > 0; i++ {
		s.ContinuousStep(10)
	}
	if got := s.ActiveRows(); got != 0 {
		t.Errorf("exhausted scheduler still runs %d rows", got)
	}
}

// TestContinuousAdmissionDrain: when the remaining demand is a sliver of
// the batch, the refill pass stops admitting fresh rows, so the active set
// drains by attrition to the overcommitted remainder instead of keeping
// every lane busy producing solutions nobody asked for.
func TestContinuousAdmissionDrain(t *testing.T) {
	// x3 = x1 OR x2 = 1: exactly 3 solutions, so target 4 is unreachable
	// and the remaining demand stays pinned at 1.
	f := mustFormula(t, "p cnf 3 4\n-3 1 2 0\n3 -1 0\n3 -2 0\n3 0\n")
	s := newSampler(t, f, Config{BatchSize: 4096, Seed: 2})
	s.ContinuousStep(0) // unbounded target: the full batch stays admitted
	if got := s.ActiveRows(); got != 4096 {
		t.Fatalf("unbounded target: active = %d want full batch", got)
	}
	near := s.UniqueCount() + 1
	if s.UniqueCount() != 3 {
		t.Fatalf("unique = %d want 3", s.UniqueCount())
	}
	for i := 0; i < 500 && s.ActiveRows() > minActive && !s.Exhausted(); i++ {
		s.ContinuousStep(near)
	}
	if got := s.ActiveRows(); got > minActive {
		t.Errorf("near target: active = %d want <= %d", got, minActive)
	}
}

// TestContinuousStepSteadyStateZeroAllocs: once the pool is saturated, a
// full scheduler tick — incremental harden, masked verify, retire,
// compaction, refill with fresh noise, GD step — allocates nothing.
func TestContinuousStepSteadyStateZeroAllocs(t *testing.T) {
	f := mustFormula(t, "p cnf 3 4\n-3 1 2 0\n3 -1 0\n3 -2 0\n3 0\n")
	s := newSampler(t, f, Config{BatchSize: 64, Seed: 4, Device: tensor.Sequential()})
	for i := 0; i < 20; i++ {
		s.ContinuousStep(0)
	}
	allocs := testing.AllocsPerRun(50, func() { s.ContinuousStep(0) })
	if allocs != 0 {
		t.Errorf("steady-state ContinuousStep allocates %.1f times per call, want 0", allocs)
	}
}

// TestContinuousStepSteadyStateZeroAllocsParallel: the parallel tick must
// match the sequential alloc discipline — the worker pool dispatches over
// prebuilt channels, the per-tile sweeps reuse per-worker Eval scratch, and
// the merge/refill phases touch only preallocated buffers. AllocsPerRun
// pins GOMAXPROCS to 1 during measurement; the pooled goroutines multiplex
// on the single P, so the dispatch path is still the one being measured.
func TestContinuousStepSteadyStateZeroAllocsParallel(t *testing.T) {
	// 3-solution space saturates the dedup pool immediately; batch 256
	// spans 4 word-aligned tiles so all 4 workers own real work.
	f := mustFormula(t, "p cnf 3 4\n-3 1 2 0\n3 -1 0\n3 -2 0\n3 0\n")
	s := newSampler(t, f, Config{BatchSize: 256, Seed: 4, Device: tensor.ParallelN(4)})
	for i := 0; i < 20; i++ {
		s.ContinuousStep(0)
	}
	allocs := testing.AllocsPerRun(50, func() { s.ContinuousStep(0) })
	if allocs != 0 {
		t.Errorf("steady-state parallel ContinuousStep allocates %.1f times per call, want 0", allocs)
	}
}

// TestContinuousAfterRoundReseeds: interleaving the paper's round loop
// with the scheduler must not corrupt either — Round rewrites V and the
// packed columns wholesale, so the next tick re-seeds.
func TestContinuousAfterRoundReseeds(t *testing.T) {
	f := mustFormula(t, paperExample)
	s := newSampler(t, f, Config{BatchSize: 128, Seed: 5})
	s.ContinuousStep(0)
	s.Round()
	if s.contReady {
		t.Fatal("Round did not invalidate the scheduler view")
	}
	s.ContinuousStep(0)
	s.ContinuousStep(0)
	for _, sol := range s.Solutions() {
		if !f.Sat(s.FullAssignment(sol)) {
			t.Fatal("invalid solution after round/continuous interleaving")
		}
	}
	if s.UniqueCount() == 0 {
		t.Fatal("interleaved sampler found nothing")
	}
}

// TestContinuousMaxAgeOneIsSingleStepSearch: with a restart cap of 1 every
// unsatisfied row recycles after one verification (one GD step past its
// restart draw), so the scheduler degrades to single-step sampling — it
// must still find solutions and recycle heavily.
func TestContinuousMaxAgeOneIsSingleStepSearch(t *testing.T) {
	f := mustFormula(t, paperExample)
	s := newSampler(t, f, Config{BatchSize: 256, Seed: 6, MaxAge: 1})
	st := s.SampleUntil(8, 10*time.Second)
	if st.Unique == 0 {
		t.Fatal("pure-restart scheduler found nothing")
	}
	if st.Stalled == 0 {
		t.Error("MaxAge=1 never stalled a row")
	}
	for _, sol := range s.Solutions() {
		if !f.Sat(s.FullAssignment(sol)) {
			t.Fatal("invalid solution from pure-restart scheduler")
		}
	}
}

// TestSolutionsSupersetOfRoundMode: same seed, same instance — after equal
// iteration budgets the continuous pool must contain every solution the
// first round-mode round found (the trajectories coincide until the first
// retirement, and per-iteration sweeps only observe more hardenings).
func TestSolutionsSupersetOfRoundMode(t *testing.T) {
	f := mustFormula(t, paperExample)
	round := newSampler(t, f, Config{BatchSize: 256, Seed: 21})
	cont := newSampler(t, f, Config{BatchSize: 256, Seed: 21})
	round.Round()
	iters := round.Stats().Iterations
	for cont.Stats().Iterations < iters {
		cont.ContinuousStep(0)
	}
	cont.ContinuousStep(0) // final sweep observes the last step's hardening
	pool := map[string]bool{}
	for _, sol := range cont.Solutions() {
		pool[fmtBits(sol)] = true
	}
	for _, sol := range round.Solutions() {
		if !pool[fmtBits(sol)] {
			t.Fatalf("round-mode solution %s missing from continuous pool", fmtBits(sol))
		}
	}
}
