package sampling

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/cnf"
	"repro/internal/core"
)

func smallFormula() *cnf.Formula { return benchgen.SmallSuite()[0].Formula }

func TestHashFormulaContentKeyed(t *testing.T) {
	a := cnf.New(3)
	a.AddClause(1, 2)
	a.AddClause(-1, 3)

	b := cnf.New(3)
	b.AddClause(1, 2)
	b.AddClause(-1, 3)
	if HashFormula(a) != HashFormula(b) {
		t.Error("identical formulas hash differently")
	}

	// Clause order matters: Algorithm 1 is order-sensitive, so reordered
	// clauses are a different compilation input.
	c := cnf.New(3)
	c.AddClause(-1, 3)
	c.AddClause(1, 2)
	if HashFormula(a) == HashFormula(c) {
		t.Error("clause order ignored by hash")
	}

	d := cnf.New(3)
	d.AddClause(1, 2)
	d.AddClause(-1, -3)
	if HashFormula(a) == HashFormula(d) {
		t.Error("literal polarity ignored by hash")
	}

	// Variable count alone must distinguish (trailing unconstrained vars).
	e := cnf.New(4)
	e.AddClause(1, 2)
	e.AddClause(-1, 3)
	if HashFormula(a) == HashFormula(e) {
		t.Error("NumVars ignored by hash")
	}
}

// TestCompileCacheSharesProblem is the PR's acceptance check: two sessions
// created from the same Compiler for the same CNF share one compiled
// program — the second Compile is a cache hit (no second extract.Transform)
// and both sessions point at the identical extraction result.
func TestCompileCacheSharesProblem(t *testing.T) {
	f := smallFormula()
	c := NewCompiler(4)

	p1, err := c.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("same CNF compiled to two distinct problems")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("cache counters: hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}

	s1, err := p1.NewSession(SessionConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p2.NewSession(SessionConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Problem().Extraction() != s2.Problem().Extraction() {
		t.Error("sessions do not share the extraction result")
	}
	if s1.Core().Problem() != s2.Core().Problem() {
		t.Error("sessions do not share the compiled core problem")
	}

	// A content-equal but distinct formula object is still a hit.
	clone := cnf.New(f.NumVars)
	for _, cl := range f.Clauses {
		clone.AddClause(cl...)
	}
	p3, err := c.Compile(clone)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Error("content-equal formula missed the cache")
	}
}

func TestCompilerLRUEviction(t *testing.T) {
	ins := benchgen.SmallSuite()
	if len(ins) < 3 {
		t.Skip("need 3 instances")
	}
	c := NewCompiler(2)
	p0, err := c.Compile(ins[0].Formula)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(ins[1].Formula); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(ins[2].Formula); err != nil { // evicts ins[0]
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("evictions=%d entries=%d, want 1/2", st.Evictions, st.Entries)
	}
	p0b, err := c.Compile(ins[0].Formula) // recompiled: a miss, new artifact
	if err != nil {
		t.Fatal(err)
	}
	if p0b == p0 {
		t.Error("evicted problem returned from cache")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 4 {
		t.Errorf("hits=%d misses=%d, want 0/4", st.Hits, st.Misses)
	}
}

func TestCompilerLRURecencyOrder(t *testing.T) {
	ins := benchgen.SmallSuite()
	c := NewCompiler(2)
	p0, _ := c.Compile(ins[0].Formula)
	if _, err := c.Compile(ins[1].Formula); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(ins[0].Formula); err != nil { // touch 0: now MRU
		t.Fatal(err)
	}
	if _, err := c.Compile(ins[2].Formula); err != nil { // must evict 1, not 0
		t.Fatal(err)
	}
	p0b, err := c.Compile(ins[0].Formula)
	if err != nil {
		t.Fatal(err)
	}
	if p0b != p0 {
		t.Error("recently-used problem was evicted")
	}
}

// TestCompilerSingleFlight races N goroutines onto one cold key: exactly
// one transformation may run, and every caller must receive the same
// shared artifact. Run under -race in CI.
func TestCompilerSingleFlight(t *testing.T) {
	f := smallFormula()
	c := NewCompiler(4)
	const n = 16
	probs := make([]*Problem, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Compile(f)
			if err != nil {
				t.Error(err)
				return
			}
			probs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if probs[i] != probs[0] {
			t.Fatalf("goroutine %d got a different problem", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (single flight)", st.Misses)
	}
	if st.Hits != n-1 {
		t.Errorf("hits = %d, want %d", st.Hits, n-1)
	}
}

// TestCompilerResidentBytes checks the /metrics residency surface: bytes
// are the per-artifact estimate, accumulate per completed entry, and are
// released exactly on eviction.
func TestCompilerResidentBytes(t *testing.T) {
	ins := benchgen.SmallSuite()
	est := func(f *cnf.Formula) int64 {
		p, err := CompileProblem(f)
		if err != nil {
			t.Fatal(err)
		}
		return p.core.RetainedBytes()
	}
	e0, e1, e2 := est(ins[0].Formula), est(ins[1].Formula), est(ins[2].Formula)

	c := NewCompiler(2)
	if st := c.Stats(); st.ResidentBytes != 0 {
		t.Fatalf("empty cache resident bytes = %d", st.ResidentBytes)
	}
	if _, err := c.Compile(ins[0].Formula); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ResidentBytes != e0 {
		t.Fatalf("resident = %d, want %d", st.ResidentBytes, e0)
	}
	if _, err := c.Compile(ins[1].Formula); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ResidentBytes != e0+e1 {
		t.Fatalf("resident = %d, want %d", st.ResidentBytes, e0+e1)
	}
	if _, err := c.Compile(ins[2].Formula); err != nil { // evicts ins[0]
		t.Fatal(err)
	}
	if st := c.Stats(); st.ResidentBytes != e1+e2 {
		t.Fatalf("resident after eviction = %d, want %d", st.ResidentBytes, e1+e2)
	}
}

// liveHeap returns the heap bytes still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestRetainedBytesBoundsHeap: the compile cache's per-entry charge,
// core.Problem.RetainedBytes, is a true bound on the heap a compiled
// Problem retains, and not a loose one. On the Fig. 4 instances, the
// live-heap growth of parsing and compiling a DIMACS body, and of decoding
// its GDSP blob, must each lie in [estimate/2, estimate], and the fresh
// Problem and its decode must price the same bytes. Prod-32 runs at the
// 20 tree copies perfbench's table2 uses: at its full 170 it retains
// about 30 MB, which the race-detector job would multiply.
func TestRetainedBytesBoundsHeap(t *testing.T) {
	if _, err := CompileProblem(smallFormula()); err != nil { // one-time package state
		t.Fatal(err)
	}
	for _, inst := range []*benchgen.Instance{
		benchgen.OrChain("or-100-20-8-UC-10", 98, 10, 10020),
		benchgen.QChain("90-10-10-q", 15, 24, 9020),
		benchgen.Iscas("s15850a_15_7", 600, 10390, 15, 15857),
		benchgen.Prod("Prod-32-c20", 1061, 20, 32),
	} {
		t.Run(inst.Name, func(t *testing.T) {
			text := inst.Formula.DIMACSString()
			h0 := liveHeap()
			f, err := cnf.ParseDIMACSString(text)
			if err != nil {
				t.Fatal(err)
			}
			p, err := CompileProblem(f)
			if err != nil {
				t.Fatal(err)
			}
			fresh := liveHeap() - h0
			// The input each side was built from was live at h0: keep it
			// live through the second reading too, or its collection
			// would be subtracted from what the Problem retains.
			runtime.KeepAlive(text)
			blob, err := p.core.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			h0 = liveHeap()
			dec, err := core.DecodeProblem(blob)
			if err != nil {
				t.Fatal(err)
			}
			decoded := liveHeap() - h0
			runtime.KeepAlive(blob)
			est := p.core.RetainedBytes()
			runtime.KeepAlive(p)
			runtime.KeepAlive(dec)
			t.Logf("estimate %d B; retained fresh %d B (%.2f), decoded %d B (%.2f)",
				est, fresh, float64(fresh)/float64(est), decoded, float64(decoded)/float64(est))
			if got := dec.RetainedBytes(); got != est {
				t.Errorf("decoded problem prices %d B, fresh %d B", got, est)
			}
			for _, m := range []struct {
				name string
				heap int64
			}{{"fresh", fresh}, {"decoded", decoded}} {
				if m.heap > est {
					t.Errorf("%s problem retains %d B > estimate %d B: the estimate is not a bound", m.name, m.heap, est)
				}
				if m.heap < est/2 {
					t.Errorf("%s problem retains %d B < half the estimate %d B: the estimate is loose", m.name, m.heap, est)
				}
			}
		})
	}
}

// TestCompilerByteBudget: the cache evicts LRU entries once completed
// residency exceeds the byte budget, even with entry-count headroom, and
// never evicts its way below one entry.
func TestCompilerByteBudget(t *testing.T) {
	ins := benchgen.SmallSuite()
	est := func(f *cnf.Formula) int64 {
		p, err := CompileProblem(f)
		if err != nil {
			t.Fatal(err)
		}
		return p.core.RetainedBytes()
	}
	e0, e1 := est(ins[0].Formula), est(ins[1].Formula)

	// Budget fits the first two entries exactly; the third must evict.
	c := NewCompilerBudget(16, e0+e1)
	for i := 0; i < 3; i++ {
		if _, err := c.Compile(ins[i].Formula); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions despite exceeding the byte budget")
	}
	if st.ResidentBytes > e0+e1 && st.Entries > 1 {
		t.Errorf("resident %d over budget %d with %d entries", st.ResidentBytes, e0+e1, st.Entries)
	}
	if st.Entries < 1 {
		t.Error("cache evicted below one entry")
	}
	// The newest entry survives even if it alone busts the budget.
	tiny := NewCompilerBudget(16, 1)
	if _, err := tiny.Compile(ins[0].Formula); err != nil {
		t.Fatal(err)
	}
	if st := tiny.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want the oversized artifact kept", st.Entries)
	}
	if _, ok := tiny.Lookup(HashFormula(ins[0].Formula)); !ok {
		t.Error("oversized artifact not servable")
	}
}

// TestCompilerStatsConsistentUnderRace hammers the cache from many
// goroutines over more formulas than it can hold, then checks the snapshot
// invariants hold exactly: entries bounded by capacity, hits+misses equal
// to the calls issued, and resident bytes equal to the sum over the entries
// that remain. Run under -race in CI.
func TestCompilerStatsConsistentUnderRace(t *testing.T) {
	ins := benchgen.SmallSuite()
	c := NewCompiler(2)
	const loops = 8
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				f := ins[(g+i)%len(ins)].Formula
				if _, err := c.Compile(f); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 8*loops {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*loops)
	}
	if st.Entries > 2 {
		t.Errorf("entries = %d beyond capacity 2", st.Entries)
	}
	// Whatever is cached now, resident bytes must be the exact sum of the
	// per-entry estimates: re-lookup every formula and sum those cached.
	var want int64
	for _, in := range ins {
		if p, ok := c.Lookup(HashFormula(in.Formula)); ok {
			want += p.core.RetainedBytes()
		}
	}
	if st2 := c.Stats(); st2.ResidentBytes != want {
		t.Errorf("resident = %d, want recomputed %d", st2.ResidentBytes, want)
	}
}

func TestCompilerLookup(t *testing.T) {
	f := smallFormula()
	c := NewCompiler(2)
	key := HashFormula(f)
	if _, ok := c.Lookup(key); ok {
		t.Fatal("lookup hit on an empty cache")
	}
	p, err := c.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Lookup(key)
	if !ok || got != p {
		t.Fatalf("lookup after compile: ok=%v same=%v", ok, got == p)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1 (lookup counts as hit)", st.Hits, st.Misses)
	}
	// Lookup refreshes recency: with f freshly touched, overflowing the
	// 2-entry cache must evict the other entry, not f.
	ins := benchgen.SmallSuite()
	if _, err := c.Compile(ins[1].Formula); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(key); !ok {
		t.Fatal("f evicted early")
	}
	if _, err := c.Compile(ins[2].Formula); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(key); !ok {
		t.Error("looked-up entry evicted despite recency refresh")
	}
	if _, ok := c.Lookup(HashFormula(ins[1].Formula)); ok {
		t.Error("LRU entry survived past capacity")
	}
}

func TestCompilerErrorNotCached(t *testing.T) {
	// A formula whose extracted circuit has no primary inputs fails
	// core.Compile; the failure must not be cached.
	f := cnf.New(1)
	f.AddClause(1) // unit clause: var 1 becomes a primary output, no inputs
	c := NewCompiler(4)
	if _, err := c.Compile(f); err == nil {
		t.Skip("instance unexpectedly compiled; pick a different error input")
	}
	if _, err := c.Compile(f); err == nil {
		t.Error("second compile of error input succeeded unexpectedly")
	}
	st := c.Stats()
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (errors not cached)", st.Misses)
	}
	if st.Entries != 0 {
		t.Errorf("entries = %d, want 0", st.Entries)
	}
}
