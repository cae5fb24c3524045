package sampling

import (
	"context"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/tensor"
)

// Problem is the immutable, shareable compiled form of one CNF: the
// formula, its extraction result, and the core compiled artifact (fused
// engine + bitblast verifier). Any number of Sessions may run over one
// Problem concurrently with zero recompilation.
type Problem struct {
	key     string
	formula *cnf.Formula
	core    *core.Problem
}

// Key returns the content hash this problem is cached under.
func (p *Problem) Key() string { return p.key }

// Formula returns the CNF this problem was compiled from.
func (p *Problem) Formula() *cnf.Formula { return p.formula }

// Extraction returns the transformation result backing this problem.
func (p *Problem) Extraction() *extract.Result { return p.core.Extraction() }

// Core returns the compiled core artifact (engine + verifier).
func (p *Problem) Core() *core.Problem { return p.core }

// NumInputs returns the primary-input count of the learned function.
func (p *Problem) NumInputs() int { return p.core.NumInputs() }

// Assumptions returns the canonical assumption literals this problem was
// specialized under (nil for an unspecialized problem).
func (p *Problem) Assumptions() []cnf.Lit { return p.core.Assumptions() }

// SessionConfig configures one sampling session. The GD fields mirror
// core.Config (zero values take the same defaults); the service-level
// fields control batch sizing.
type SessionConfig struct {
	// BatchSize fixes the GD batch. When 0 and MemoryBudget is set, the
	// batch adapts to the budget; when both are 0, core's default applies.
	BatchSize int
	// Iterations, LearningRate, Seed and Device are passed through to
	// core.Config.
	Iterations   int
	LearningRate float32
	Seed         int64
	Device       tensor.Device
	// MemoryBudget bounds the session's tensor allocation in bytes; the
	// batch size adapts to fit (only consulted when BatchSize == 0). The
	// compiled engine's tiled scratch is a fixed cost, so sizing solves
	// fixed + perRow·batch <= budget.
	MemoryBudget int64
	// Projection lists the CNF variables defining solution identity (the
	// "c ind"/"p show" sampling set): the session counts and dedups
	// projected-distinct solutions, streaming each projected class's first
	// full-model witness. Nil inherits the formula's declared projection;
	// see core.Config.Projection for validation rules.
	Projection []int
}

// NewSession builds a sampling session over this problem. Sessions are
// cheap — no transformation or engine compilation happens here — so a
// service can create one per request. Assumptions are resolved before
// this point: a Problem from Compiler.CompileAssume or LookupAssume
// already carries its pins.
func (p *Problem) NewSession(cfg SessionConfig) (*Session, error) {
	s, err := p.core.NewSampler(core.Config{
		BatchSize:    p.BatchFor(cfg),
		Iterations:   cfg.Iterations,
		LearningRate: cfg.LearningRate,
		Seed:         cfg.Seed,
		Device:       cfg.Device,
		Projection:   cfg.Projection,
	})
	if err != nil {
		return nil, err
	}
	return &Session{prob: p, core: s, name: "this-work"}, nil
}

// maxAdaptedBatch caps a budget-sized batch: beyond ~8k rows per round
// the extra throughput is marginal on CPU but first-round latency grows
// linearly.
const maxAdaptedBatch = 8192

// BatchFor returns the GD batch a session over p runs cfg at: BatchSize
// when set; else, under a MemoryBudget, the largest batch that fits the
// budget, clamped to [64, maxAdaptedBatch]; else 0, which takes core's
// default.
func (p *Problem) BatchFor(cfg SessionConfig) int {
	if cfg.BatchSize != 0 || cfg.MemoryBudget <= 0 {
		return cfg.BatchSize
	}
	batch := p.core.BatchForBudget(cfg.Device.Workers(), cfg.MemoryBudget)
	return min(max(batch, 64), maxAdaptedBatch)
}

// Session is one sampling request over a shared Problem: a core sampler
// session plus streaming bookkeeping. Sessions are lightweight (V/momentum
// matrices, per-worker scratch, dedup pool) and independent — N sessions
// over one Problem produce N mutually independent solution streams, each
// deduplicated within itself and deterministic for its seed. A Session is
// not safe for concurrent use (the batch rows are parallelized internally
// per its Device); run concurrent requests on separate Sessions.
type Session struct {
	prob      *Problem
	core      *core.Sampler
	name      string
	delivered int             // solutions already handed to a sink
	yield     <-chan struct{} // set per StreamYield call; checked at tick boundaries
	stats     Stats
}

// Delivered returns how many solutions this session has already handed to
// a sink — the stream cursor a checkpoint captures so a resumed session
// continues delivery at exactly the next undelivered solution.
func (s *Session) Delivered() int { return s.delivered }

// Name implements Sampler.
func (s *Session) Name() string { return s.name }

// Problem returns the shared compiled problem.
func (s *Session) Problem() *Problem { return s.prob }

// Core returns the underlying core sampler (engine stats, dedup pool).
func (s *Session) Core() *core.Sampler { return s.core }

// Stats returns the session's accumulated unified stats.
func (s *Session) Stats() Stats { return s.stats }

// Projection returns the CNF variables defining this session's solution
// identity (nil when sampling over the full assignment). When set, the
// session's Unique count and Solutions are projected-distinct.
func (s *Session) Projection() []int { return s.core.Projection() }

// SolutionHits returns the per-solution retirement tallies (same indexing
// as Solutions) — the empirical frequency table the quality oracle's
// uniformity tests consume.
func (s *Session) SolutionHits() []int { return s.core.SolutionHits() }

// Stream implements Sampler: it drives the continuous-batch scheduler
// until target unique solutions exist (target <= 0 means unbounded),
// delivering each solution to sink as a dense CNF assignment the moment
// its row retires — no round barrier between the pool and the caller.
// Cancellation via ctx stops between scheduler ticks with all partial
// progress retained (and already streamed).
func (s *Session) Stream(ctx context.Context, target int, sink Sink) (st Stats, err error) {
	return s.StreamYield(ctx, target, nil, sink)
}

// StreamYield is Stream with a cooperative preemption channel: when yield
// becomes readable (typically: closed), the stream stops cleanly at the
// next tick boundary with Stats.Yielded set and all progress retained.
// A yielded session is quiescent — exactly the state Checkpoint requires —
// so a scheduler can checkpoint it, release its resources, and later
// restore and continue the identical stream: yield → Checkpoint →
// RestoreSession → StreamYield is bit-identical to the uninterrupted run.
// A nil yield never fires, making this exactly Stream.
func (s *Session) StreamYield(ctx context.Context, target int, yield <-chan struct{}, sink Sink) (st Stats, err error) {
	// Timeout/Exhausted/Yielded describe how *this* call ended; a reused
	// session must not inherit them from a previous, cancelled call.
	s.stats.Timeout, s.stats.Exhausted, s.stats.Yielded = false, false, false
	s.yield = yield
	defer func() { st = s.finish() }()
	// Deliver the backlog first so a reused session streams solutions a
	// previous nil-sink call collected but never handed out.
	if ferr := s.flush(sink); ferr != nil {
		err = SinkError(ferr, &s.stats)
		return
	}
	for target <= 0 || s.core.UniqueCount() < target {
		// The scheduler's saturation guard counts retired-row gain (not
		// rounds): once it trips, further ticks admit no fresh work. Checked
		// at the loop top — not after the tick — so a session restored from
		// a checkpoint taken at exhaustion stops immediately instead of
		// burning one extra no-op tick.
		if s.core.Exhausted() {
			s.stats.Exhausted = true
			break
		}
		if ctx.Err() != nil {
			s.stats.Timeout = true
			break
		}
		if s.yieldRequested() {
			s.stats.Yielded = true
			break
		}
		s.core.ContinuousStep(target)
		s.stats.Calls++
		if ferr := s.flush(sink); ferr != nil {
			err = SinkError(ferr, &s.stats)
			return
		}
	}
	return
}

// yieldRequested reports whether the current StreamYield call's preemption
// channel has fired. Checked only at tick boundaries, so a yielded session
// is always quiescent and checkpoint-exact.
func (s *Session) yieldRequested() bool {
	if s.yield == nil {
		return false
	}
	select {
	case <-s.yield:
		return true
	default:
		return false
	}
}

// flush streams solutions discovered since the last flush. Each delivery
// allocates only the full assignment handed to the sink — the pool's
// primary-input rows are expanded in place, never copied.
func (s *Session) flush(sink Sink) error {
	if sink == nil {
		return nil
	}
	for n := s.core.UniqueCount(); s.delivered < n; {
		sol := s.core.FullAssignmentAt(s.delivered)
		s.delivered++
		if err := sink(sol); err != nil {
			return err
		}
	}
	return nil
}

// finish refreshes the snapshot fields derived from the core sampler.
// Elapsed is read from the core sampler's own monotonic accounting — the
// one clock both the streaming and blocking paths thread their work
// through — so Throughput reports solutions per second of *sampling* time.
// Wall time a consumer spends inside its sink (writing files, blocking on
// a full channel) does not dilute the reported rate.
func (s *Session) finish() Stats {
	s.stats.Unique = s.core.UniqueCount()
	s.stats.Elapsed = s.core.Stats().Elapsed
	return s.stats
}

// SampleUntil is the blocking compatibility wrapper over Stream, matching
// core.Sampler.SampleUntil's contract on the unified Stats.
func (s *Session) SampleUntil(target int, timeout time.Duration) Stats {
	return SampleUntil(s, target, timeout)
}

// Solutions implements Sampler: the session's unique solutions so far as
// dense CNF assignments. Rows are freshly allocated — mutating them cannot
// corrupt the dedup pool.
func (s *Session) Solutions() [][]bool {
	out := make([][]bool, s.core.UniqueCount())
	for i := range out {
		out[i] = s.core.FullAssignmentAt(i)
	}
	return out
}
