package core

import (
	"runtime"
	"testing"

	"repro/internal/cnf"
)

// liveHeap returns the heap bytes still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestPoolTermBoundsRetainedHeap: the memory model's per-solution pool
// term is a true bound on the heap a session retains per pooled solution,
// and not a loose one. Over 20k solutions pooled by the continuous
// scheduler, the live-heap growth per solution must lie in [term/2, term]
// at several input widths and under a projection.
func TestPoolTermBoundsRetainedHeap(t *testing.T) {
	const window = 20_000
	for _, c := range []struct {
		name       string
		vars, proj int // variables, in disjoint clauses (x ∨ y); projection width
	}{
		{"60-inputs", 60, 0},
		{"300-inputs", 300, 0},
		{"800-inputs", 800, 0},
		{"300-inputs-projected-100", 300, 100},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := cnf.New(0)
			for v := 1; v <= c.vars; v += 2 {
				f.AddClause(cnf.Lit(v), cnf.Lit(v+1))
			}
			p, err := CompileCNF(f)
			if err != nil {
				t.Fatal(err)
			}
			var proj []int
			for v := 1; v <= c.proj; v++ {
				proj = append(proj, v)
			}
			s, err := p.NewSampler(Config{BatchSize: 1024, Seed: 1, Projection: proj})
			if err != nil {
				t.Fatal(err)
			}
			// The first tick allocates the scheduler's per-row arrays, so
			// the baseline is taken after it.
			s.ContinuousStep(0)
			h0, u0 := liveHeap(), s.UniqueCount()
			for s.UniqueCount() < u0+window && !s.Exhausted() {
				s.ContinuousStep(0)
			}
			h1, u1 := liveHeap(), s.UniqueCount()
			runtime.KeepAlive(s)
			if u1-u0 < window {
				t.Fatalf("pool saturated at %d solutions", u1)
			}
			got := float64(h1-h0) / float64(u1-u0)

			shape := Shape{Workers: 1, Batch: 1024, Projection: c.proj}
			base := p.MemoryEstimate(shape)
			shape.Retained = 1
			term := float64(p.MemoryEstimate(shape) - base)
			t.Logf("%d inputs: %.0f B retained per solution over %d solutions; pool term %.0f B",
				p.NumInputs(), got, u1-u0, term)
			if got > term {
				t.Errorf("retained %.0f B per solution > pool term %.0f B: the estimate is not a bound", got, term)
			}
			if got < term/2 {
				t.Errorf("retained %.0f B per solution < half the pool term %.0f B: the estimate is loose", got, term)
			}
		})
	}
}
