package sampling_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/cnf"
	"repro/internal/sampling"
)

const projDIMACS = "c ind 1 4 7 10 0\np cnf 12 4\n1 2 3 0\n4 5 6 0\n7 8 9 0\n10 11 12 0\n"

func mustParse(t *testing.T, s string) *cnf.Formula {
	t.Helper()
	f, err := cnf.ParseDIMACSString(s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestHashFormulaCoversProjection: the compile-cache key must separate
// formulas that differ only in their declared sampling set, and stay
// stable for identical inputs.
func TestHashFormulaCoversProjection(t *testing.T) {
	plain := mustParse(t, "p cnf 12 4\n1 2 3 0\n4 5 6 0\n7 8 9 0\n10 11 12 0\n")
	proj := mustParse(t, projDIMACS)
	other := mustParse(t, "c ind 1 4 0\np cnf 12 4\n1 2 3 0\n4 5 6 0\n7 8 9 0\n10 11 12 0\n")
	hp, hq, ho := sampling.HashFormula(plain), sampling.HashFormula(proj), sampling.HashFormula(other)
	if hp == hq || hq == ho || hp == ho {
		t.Fatalf("projections not separated: %s / %s / %s", hp[:8], hq[:8], ho[:8])
	}
	if sampling.HashFormula(mustParse(t, projDIMACS)) != hq {
		t.Fatal("hash not stable for identical input")
	}
}

// TestConcurrentProjectedSessionsShareProblem: N projected sessions (with
// differing per-session projections) over one cached
// Problem must compile exactly once, run race-clean, and each produce only
// verified witnesses with distinct projected signatures.
func TestConcurrentProjectedSessionsShareProblem(t *testing.T) {
	f := mustParse(t, projDIMACS)
	comp := sampling.NewCompiler(4)
	prob, err := comp.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	projections := [][]int{
		nil,              // inherit the formula's c ind set
		{1, 4},           // narrower
		{2, 5, 8, 11},    // different variables
		{1, 4, 7, 10, 2}, // wider
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cfg := sampling.SessionConfig{
				BatchSize:  64,
				Seed:       int64(100 + w),
				Projection: projections[w%len(projections)],
			}
			sess, err := prob.NewSession(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			st, err := sess.Stream(context.Background(), 8, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if st.Unique == 0 {
				t.Errorf("worker %d found nothing", w)
				return
			}
			for _, sol := range sess.Solutions() {
				if !f.Sat(sol) {
					t.Errorf("worker %d: unverified witness", w)
					return
				}
			}
			hits := sess.SolutionHits()
			if len(hits) != st.Unique {
				t.Errorf("worker %d: %d tallies for %d solutions", w, len(hits), st.Unique)
			}
		}(w)
	}
	wg.Wait()
	if cs := comp.Stats(); cs.Misses != 1 {
		t.Fatalf("shared problem compiled %d times, want 1", cs.Misses)
	}
}

// TestSessionInheritsFormulaProjection: a session built with a nil
// Projection over a formula carrying "c ind" lines samples projected.
func TestSessionInheritsFormulaProjection(t *testing.T) {
	f := mustParse(t, projDIMACS)
	prob, err := sampling.CompileProblem(f)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := prob.NewSession(sampling.SessionConfig{BatchSize: 64, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Projection(); len(got) != 4 {
		t.Fatalf("session projection %v, want the formula's 4-variable set", got)
	}
	st, err := sess.Stream(context.Background(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Exhausted || st.Unique != 16 {
		t.Fatalf("projected space: unique=%d exhausted=%v, want 16/true", st.Unique, st.Exhausted)
	}
}
