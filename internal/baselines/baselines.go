// Package baselines implements the three comparison samplers from the
// paper's evaluation, re-created on this repository's substrates:
//
//   - CMSGenLike: a randomized-CDCL sampler in the spirit of CMSGen
//     (Golia et al., FMCAD'21) — one CDCL descent with random decision
//     polarity per sample, no uniformity machinery.
//   - UniGenLike: a hashing-based almost-uniform sampler in the spirit of
//     UniGen3 (Soos et al., CAV'20) — random XOR hash constraints partition
//     the solution space into cells; cells are enumerated with a CDCL
//     solver and sampled.
//   - DiffSampler: gradient descent directly on the flat CNF clause
//     relaxation (Ardakani et al., DAC'24 late-breaking) — the same tensor
//     machinery as the core sampler but without the circuit transformation,
//     so its per-iteration cost scales with CNF literals instead of the
//     reduced multi-level function.
//
// All three implement sampling.Sampler and return verified, deduplicated
// full CNF assignments, so throughput numbers are directly comparable with
// the core sampler's.
package baselines

import (
	"context"
	"time"

	"repro/internal/bitblast"
	"repro/internal/cnf"
	"repro/internal/sampling"
)

// driver is the state and Stream loop the three baselines share: the
// dedup pool, the unified stats, and the delivery cursor over the pool.
type driver struct {
	pool      *pool
	stats     sampling.Stats
	delivered int // pool models already handed to a sink
}

// Stats returns the sampler's accumulated stats.
func (d *driver) Stats() sampling.Stats { return d.stats }

// Solutions implements sampling.Sampler. Rows are copies: mutating them
// cannot corrupt the dedup pool.
func (d *driver) Solutions() [][]bool {
	out := make([][]bool, len(d.pool.sols))
	for i, sol := range d.pool.sols {
		out[i] = append([]bool(nil), sol...)
	}
	return out
}

// stream is the sampling.Sampler Stream loop: until target models exist
// (target <= 0: unbounded) it checks ctx, runs one step — a solve, a
// cell, a GD round — and hands the models the step added to sink. step
// reports whether the sampler is done (exhausted or given up), setting
// Stats.Exhausted itself. Elapsed counts step time only, not time spent
// in the sink.
func (d *driver) stream(ctx context.Context, target int, sink sampling.Sink, step func() bool) (sampling.Stats, error) {
	// Timeout/Exhausted describe how *this* call ended, not a prior one.
	d.stats.Timeout, d.stats.Exhausted = false, false
	// Deliver the backlog a previous nil-sink call collected first.
	err := d.flush(sink)
	for err == nil && (target <= 0 || d.pool.size() < target) {
		if ctx.Err() != nil {
			d.stats.Timeout = true
			break
		}
		start := time.Now()
		done := step()
		d.stats.Elapsed += time.Since(start)
		d.stats.Unique = d.pool.size()
		if err = d.flush(sink); done {
			break
		}
	}
	err = sampling.SinkError(err, &d.stats)
	return d.stats, err
}

// flush hands sink the pool models added since the last flush.
func (d *driver) flush(sink sampling.Sink) error {
	if sink == nil {
		return nil
	}
	for d.delivered < d.pool.size() {
		sol := append([]bool(nil), d.pool.sols[d.delivered]...)
		d.delivered++
		if err := sink(sol); err != nil {
			return err
		}
	}
	return nil
}

// pool deduplicates models. Dedup keys are 64-bit SplitMix64 hashes of
// the packed model bits with exact comparison on hash hits (so a
// collision can never merge distinct models); unlike the former
// string-key scheme this allocates nothing per candidate.
type pool struct {
	formula *cnf.Formula
	seen    map[uint64][]int32 // hash → indices into sols
	rowbuf  []uint64           // packed model scratch
	sols    [][]bool
}

func newPool(f *cnf.Formula) *pool {
	return &pool{
		formula: f,
		seen:    map[uint64][]int32{},
		rowbuf:  make([]uint64, (f.NumVars+63)/64),
	}
}

// add verifies and folds a model; it reports whether the model was new.
func (p *pool) add(model []bool) bool {
	if !p.formula.Sat(model) {
		return false
	}
	for i := range p.rowbuf {
		p.rowbuf[i] = 0
	}
	for i, v := range model {
		if v {
			p.rowbuf[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	h := bitblast.Hash64(p.rowbuf)
	for _, idx := range p.seen[h] {
		prev := p.sols[idx]
		same := len(prev) == len(model)
		for i := range prev {
			if !same {
				break
			}
			same = prev[i] == model[i]
		}
		if same {
			return false
		}
	}
	p.seen[h] = append(p.seen[h], int32(len(p.sols)))
	p.sols = append(p.sols, append([]bool(nil), model...))
	return true
}

func (p *pool) size() int { return len(p.sols) }
