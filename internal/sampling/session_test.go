package sampling

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/tensor"
)

func bitString(sol []bool) string {
	b := make([]byte, len(sol))
	for i, v := range sol {
		b[i] = '0'
		if v {
			b[i] = '1'
		}
	}
	return string(b)
}

func sessionCfg(seed int64) SessionConfig {
	return SessionConfig{Seed: seed, BatchSize: 256, Device: tensor.ParallelN(2)}
}

func TestSessionStreamDeliversEverySolution(t *testing.T) {
	in := benchgen.SmallSuite()[0]
	p, err := CompileProblem(in.Formula)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewSession(sessionCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	var streamed [][]bool
	st, err := s.Stream(context.Background(), 30, func(sol []bool) error {
		streamed = append(streamed, sol)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Unique < 30 {
		t.Fatalf("unique = %d, want >= 30", st.Unique)
	}
	if len(streamed) != st.Unique {
		t.Fatalf("streamed %d, stats report %d", len(streamed), st.Unique)
	}
	for i, sol := range streamed {
		if !in.Formula.Sat(sol) {
			t.Fatalf("streamed solution %d does not satisfy the CNF", i)
		}
	}
	// The collect-everything surface agrees with the stream, in order.
	sols := s.Solutions()
	if len(sols) != len(streamed) {
		t.Fatalf("Solutions() = %d rows, streamed %d", len(sols), len(streamed))
	}
	for i := range sols {
		if bitString(sols[i]) != bitString(streamed[i]) {
			t.Fatalf("row %d: Solutions() and stream disagree", i)
		}
	}
}

func TestSessionStreamMatchesSampleUntil(t *testing.T) {
	in := benchgen.SmallSuite()[1]
	p, err := CompileProblem(in.Formula)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.NewSession(sessionCfg(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.NewSession(sessionCfg(9))
	if err != nil {
		t.Fatal(err)
	}
	var streamed [][]bool
	if _, err := a.Stream(context.Background(), 25, func(sol []bool) error {
		streamed = append(streamed, sol)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	b.SampleUntil(25, 0)
	blocking := b.Solutions()
	if len(streamed) != len(blocking) {
		t.Fatalf("stream found %d, blocking found %d", len(streamed), len(blocking))
	}
	for i := range streamed {
		if bitString(streamed[i]) != bitString(blocking[i]) {
			t.Fatalf("row %d differs between streaming and blocking runs", i)
		}
	}
}

// TestConcurrentSessionsOverOneProblem is the PR's concurrency satellite:
// N goroutines sampling from one cached Problem must produce valid,
// per-session-deduplicated streams, each identical to a sequential run of
// the same seed. Run under -race in CI.
func TestConcurrentSessionsOverOneProblem(t *testing.T) {
	in := benchgen.SmallSuite()[0]
	c := NewCompiler(2)
	p, err := c.Compile(in.Formula)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		target  = 40
	)
	streams := make([][][]bool, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := p.NewSession(sessionCfg(int64(100 + i)))
			if err != nil {
				t.Error(err)
				return
			}
			_, err = s.Stream(context.Background(), target, func(sol []bool) error {
				streams[i] = append(streams[i], sol)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	for i, stream := range streams {
		if len(stream) == 0 {
			t.Fatalf("session %d streamed nothing", i)
		}
		seen := map[string]bool{}
		for j, sol := range stream {
			if !in.Formula.Sat(sol) {
				t.Fatalf("session %d solution %d invalid", i, j)
			}
			key := bitString(sol)
			if seen[key] {
				t.Fatalf("session %d streamed duplicate solution %d", i, j)
			}
			seen[key] = true
		}
	}

	// Each concurrent stream must be bit-identical to a sequential rerun
	// with the same seed over a freshly compiled problem.
	for i := 0; i < workers; i++ {
		ref, err := CompileProblem(in.Formula)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ref.NewSession(sessionCfg(int64(100 + i)))
		if err != nil {
			t.Fatal(err)
		}
		var seq [][]bool
		if _, err := s.Stream(context.Background(), target, func(sol []bool) error {
			seq = append(seq, sol)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(seq) != len(streams[i]) {
			t.Fatalf("session %d: concurrent found %d, sequential %d", i, len(streams[i]), len(seq))
		}
		for j := range seq {
			if bitString(seq[j]) != bitString(streams[i][j]) {
				t.Fatalf("session %d row %d: concurrent and sequential streams differ", i, j)
			}
		}
	}

	if st := c.Stats(); st.Misses != 1 {
		t.Errorf("shared problem compiled %d times, want 1", st.Misses)
	}
}

func TestStreamContextCancellation(t *testing.T) {
	in := benchgen.SmallSuite()[0]
	p, err := CompileProblem(in.Formula)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewSession(sessionCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	delivered := 0
	st, err := s.Stream(ctx, 1<<30, func(sol []bool) error {
		delivered++
		if delivered == 5 {
			cancel() // cancel mid-stream; already-delivered solutions stay delivered
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Timeout {
		t.Error("cancelled stream not marked Timeout")
	}
	if delivered == 0 || delivered != st.Unique {
		t.Errorf("delivered %d, stats report %d — partial results must be fully streamed", delivered, st.Unique)
	}
}

func TestStreamDeadline(t *testing.T) {
	in := benchgen.SmallSuite()[2]
	p, err := CompileProblem(in.Formula)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewSession(sessionCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	st, err := s.Stream(ctx, 1<<30, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Timeout && !st.Exhausted {
		t.Error("unbounded target ended without timeout or exhaustion")
	}
	if time.Since(start) > 5*time.Second {
		t.Errorf("deadline ignored: ran %v", time.Since(start))
	}
}

func TestStreamSinkStopAndError(t *testing.T) {
	in := benchgen.SmallSuite()[0]
	p, err := CompileProblem(in.Formula)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewSession(sessionCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	st, err := s.Stream(context.Background(), 1<<30, func(sol []bool) error {
		n++
		if n >= 3 {
			return Stop
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Stop must not surface as an error, got %v", err)
	}
	if st.Unique == 0 {
		t.Error("no progress before Stop")
	}

	boom := errors.New("boom")
	s2, err := p.NewSession(sessionCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Stream(context.Background(), 1<<30, func(sol []bool) error {
		return boom
	}); !errors.Is(err, boom) {
		t.Errorf("sink error lost: got %v", err)
	}
}

func TestStreamResumesBacklogAcrossCalls(t *testing.T) {
	in := benchgen.SmallSuite()[0]
	p, err := CompileProblem(in.Formula)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewSession(sessionCfg(11))
	if err != nil {
		t.Fatal(err)
	}
	// First call collects without a sink; the second must deliver that
	// backlog before sampling further.
	first := s.SampleUntil(10, 0)
	if first.Unique == 0 {
		t.Fatal("no solutions collected")
	}
	var streamed [][]bool
	st, err := s.Stream(context.Background(), first.Unique+5, func(sol []bool) error {
		streamed = append(streamed, sol)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != st.Unique {
		t.Errorf("streamed %d, total unique %d — backlog not delivered", len(streamed), st.Unique)
	}
}

func TestSolutionRowsAreCallerOwned(t *testing.T) {
	in := benchgen.SmallSuite()[0]
	p, err := CompileProblem(in.Formula)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewSession(sessionCfg(19))
	if err != nil {
		t.Fatal(err)
	}
	s.SampleUntil(10, 0)
	a := s.Solutions()
	for _, row := range a {
		for i := range row {
			row[i] = !row[i] // vandalize the returned rows
		}
	}
	b := s.Solutions()
	for i := range b {
		if !in.Formula.Sat(b[i]) {
			t.Fatal("mutating returned rows corrupted the sampler's pool")
		}
	}
}

func TestSessionMemoryBudgetAdaptsBatch(t *testing.T) {
	in := benchgen.SmallSuite()[0]
	p, err := CompileProblem(in.Formula)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := p.NewSession(SessionConfig{Seed: 1, MemoryBudget: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	roomy, err := p.NewSession(SessionConfig{Seed: 1, MemoryBudget: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	tb, rb := batchOf(t, tight), batchOf(t, roomy)
	if tb >= rb {
		t.Errorf("tight budget batch %d not below roomy batch %d", tb, rb)
	}
	if rb > 8192 {
		t.Errorf("adapted batch %d exceeds default cap", rb)
	}
	if st := tight.SampleUntil(5, 2*time.Second); st.Unique == 0 {
		t.Error("budgeted session found nothing")
	}
}

// TestSessionConfigReachesCore: every SessionConfig field lands in the
// core sampler's configuration — satsample's -iters/-lr/-seed/-batch and
// the server's device and memory budget all depend on this pass-through.
func TestSessionConfigReachesCore(t *testing.T) {
	p, err := CompileProblem(benchgen.SmallSuite()[0].Formula)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewSession(SessionConfig{
		BatchSize:    96,
		Iterations:   7,
		LearningRate: 0.25,
		Seed:         41,
		Device:       tensor.ParallelN(3),
		MemoryBudget: 1, // ignored: BatchSize is set
		Projection:   []int{2, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	desc := s.Core().String()
	for _, want := range []string{"batch=96 iters=7 lr=0.25 ", "device=parallel-3}"} {
		if !strings.Contains(desc, want) {
			t.Errorf("core sampler %q lacks %q", desc, want)
		}
	}
	if got := s.Core().Snapshot().Seed(); got != 41 {
		t.Errorf("core seed %d, want 41", got)
	}
	if got := s.Core().EngineStats().Workers; got != 3 {
		t.Errorf("core workers %d, want 3", got)
	}
	if got := fmt.Sprint(s.Projection()); got != "[2 1]" {
		t.Errorf("core projection %s, want [2 1]", got)
	}

	// MemoryBudget sizes the batch only when BatchSize is 0, clamped to
	// [64, maxAdaptedBatch].
	for _, c := range []struct {
		budget int64
		want   int
	}{{1, 64}, {1 << 40, maxAdaptedBatch}} {
		cfg := SessionConfig{Seed: 1, MemoryBudget: c.budget}
		if got := p.BatchFor(cfg); got != c.want {
			t.Errorf("BatchFor(budget %d) = %d, want %d", c.budget, got, c.want)
		}
		sess, err := p.NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := batchOf(t, sess); got != c.want {
			t.Errorf("budget %d: core batch %d, want %d", c.budget, got, c.want)
		}
	}
}

// batchOf extracts the configured batch size from the core sampler's
// self-description (the config itself is unexported).
func batchOf(t *testing.T, s *Session) int {
	t.Helper()
	desc := s.Core().String()
	i := strings.Index(desc, "batch=")
	if i < 0 {
		t.Fatalf("no batch in %q", desc)
	}
	var b int
	if _, err := fmt.Sscanf(desc[i+len("batch="):], "%d", &b); err != nil {
		t.Fatalf("cannot parse batch from %q: %v", desc, err)
	}
	return b
}

func TestStreamTimeoutNotStickyAcrossCalls(t *testing.T) {
	in := benchgen.SmallSuite()[0]
	p, err := CompileProblem(in.Formula)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewSession(sessionCfg(23))
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel() // first call: cancelled before any work
	st, err := s.Stream(cancelled, 1<<30, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Timeout {
		t.Fatal("cancelled call not marked Timeout")
	}
	st, err = s.Stream(context.Background(), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Timeout {
		t.Error("successful call inherited Timeout from a previous cancelled call")
	}
	if st.Unique < 5 {
		t.Errorf("unique = %d want >= 5", st.Unique)
	}
}

// TestStreamElapsedExcludesSinkTime: Stats.Elapsed must come from the one
// monotonic clock the core sampler threads through both the blocking and
// streaming paths — time a consumer burns inside its sink must not count
// as sampling time, or Session.Stream consumers see misleading sol/s.
func TestStreamElapsedExcludesSinkTime(t *testing.T) {
	in := benchgen.SmallSuite()[0]
	p, err := CompileProblem(in.Formula)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewSession(sessionCfg(29))
	if err != nil {
		t.Fatal(err)
	}
	const (
		perSink   = 40 * time.Millisecond
		solutions = 5
	)
	start := time.Now()
	st, err := s.Stream(context.Background(), solutions, func(sol []bool) error {
		time.Sleep(perSink)
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if st.Unique < solutions {
		t.Fatalf("unique = %d want >= %d", st.Unique, solutions)
	}
	sinkTime := time.Duration(st.Unique) * perSink
	if wall < sinkTime {
		t.Fatalf("wall %v below total sink time %v — clock broken", wall, sinkTime)
	}
	// Sampling this tiny instance takes well under one sink sleep; any
	// Elapsed at or above the sink total means consumer time leaked in.
	if st.Elapsed >= sinkTime {
		t.Errorf("Elapsed %v includes sink time (sink total %v, wall %v)", st.Elapsed, sinkTime, wall)
	}
	if st.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
	// The blocking wrapper reads the same clock.
	st2 := s.SampleUntil(st.Unique+5, 5*time.Second)
	if st2.Elapsed < st.Elapsed {
		t.Errorf("Elapsed went backwards across calls: %v -> %v", st.Elapsed, st2.Elapsed)
	}
}
