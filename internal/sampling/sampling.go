// Package sampling is the service layer over the gradient-descent sampler:
// it turns the per-request compile-and-collect architecture of core.Sampler
// into an embeddable sampling service core.
//
// The package splits sampling into three pieces:
//
//   - Problem: an immutable compiled artifact (parsed CNF, extraction
//     result, fused GD engine, bitblast verifier) shared by any number of
//     concurrent sessions.
//   - Compiler: produces Problems behind a content-hash-keyed LRU cache
//     with single-flight deduplication, so a service compiles each distinct
//     CNF once no matter how many requests race on it.
//   - Session: one lightweight sampling request over a Problem. Sessions
//     stream verified solutions as each row retires, honour context
//     cancellation, and keep SampleUntil/Solutions as thin compatibility
//     wrappers over the streaming path.
//
// The Sampler interface unifies sessions with the baseline samplers
// (package baselines implements it directly), so harnesses and CLI tools
// drive every sampler — streaming, cancellable — through one surface.
package sampling

import (
	"context"
	"errors"
	"time"
)

// Stats reports a sampling run through the unified interface.
type Stats struct {
	Unique    int           // distinct verified solutions found so far
	Calls     int           // scheduler ticks, GD rounds or solver calls
	Elapsed   time.Duration // wall-clock time spent sampling (across calls)
	Timeout   bool          // stopped by context cancellation or deadline
	Exhausted bool          // reachable solution set exhausted before target
	Yielded   bool          // stopped by a StreamYield request at a tick boundary
}

// Throughput returns unique solutions per second.
func (s Stats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Unique) / s.Elapsed.Seconds()
}

// Sink receives one newly discovered solution as a dense CNF assignment
// (sol[v-1] = value of variable v). The slice is owned by the receiver —
// implementations may retain or mutate it. Returning an error stops the
// stream; returning Stop stops it without reporting an error.
type Sink func(sol []bool) error

// Stop is the sentinel a Sink returns to end a stream early without error
// (the streaming analogue of reaching the target).
var Stop = errors.New("sampling: stop")

// Sampler is the unified sampling surface: the core GD session and every
// baseline implement it, so drivers are written once. Implementations
// accumulate solutions across calls; Stream only delivers solutions not
// already delivered by a previous call on the same sampler.
type Sampler interface {
	// Name identifies the sampler in reports.
	Name() string
	// Stream samples until target unique solutions exist in the pool
	// (target <= 0 means unbounded), delivering each newly discovered
	// solution to sink (which may be nil to collect without streaming).
	// It returns when the target is reached, ctx is cancelled or past its
	// deadline (Stats.Timeout), the solution space is exhausted
	// (Stats.Exhausted), or sink returns an error. Partial progress is
	// always retained and reported in Stats.
	Stream(ctx context.Context, target int, sink Sink) (Stats, error)
	// Solutions returns the distinct verified models found so far as dense
	// assignments over the formula's variables. The rows are copies.
	Solutions() [][]bool
}

// SinkError maps a sink's return value onto Stream's error contract,
// shared by every Sampler implementation: Stop and context errors are
// clean early exits (context errors additionally mark the run cancelled
// via st.Timeout), anything else is the caller's error.
func SinkError(err error, st *Stats) error {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		st.Timeout = true
		return nil
	case errors.Is(err, Stop):
		return nil
	}
	return err
}

// SampleUntil drives s until target unique solutions are found or the
// timeout elapses (timeout <= 0 means no timeout) — the blocking,
// collect-everything compatibility surface over Stream. It keeps the
// legacy core.Sampler.SampleUntil contract for target <= 0: nothing to
// do, return the current stats (Stream, by contrast, treats target <= 0
// as unbounded streaming).
func SampleUntil(s Sampler, target int, timeout time.Duration) Stats {
	if target <= 0 {
		if snap, ok := s.(interface{ Stats() Stats }); ok {
			return snap.Stats()
		}
		return Stats{}
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	st, _ := s.Stream(ctx, target, nil)
	return st
}
