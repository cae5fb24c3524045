package baselines

import (
	"context"
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/cnf"
	"repro/internal/sampling"
	"repro/internal/tensor"
)

// streamers builds each baseline the way the harness does, with a small
// DiffSampler batch so the tests stay quick.
var streamers = []struct {
	name string
	mk   func(f *cnf.Formula) sampling.Sampler
}{
	{"cmsgen", func(f *cnf.Formula) sampling.Sampler { return NewCMSGenLike(f, 1) }},
	{"unigen", func(f *cnf.Formula) sampling.Sampler { return NewUniGenLike(f, 1) }},
	{"diffsampler", func(f *cnf.Formula) sampling.Sampler {
		d := NewDiffSampler(f, 1, tensor.Sequential())
		d.BatchSize = 64
		return d
	}},
}

// TestStreamContract checks each baseline against sampling.Sampler's
// Stream contract: every solution reaches the sink as it is found, ctx
// ends the stream with its partial progress delivered, and an exhausted
// formula ends the stream without any deadline.
func TestStreamContract(t *testing.T) {
	for _, b := range streamers {
		t.Run(b.name+"/incremental", func(t *testing.T) {
			f := benchgen.SmallSuite()[0].Formula
			s := b.mk(f)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			var streamed []string
			st, err := s.Stream(ctx, 15, func(sol []bool) error {
				if !f.Sat(sol) {
					t.Errorf("streamed solution %d does not satisfy the formula", len(streamed))
				}
				streamed = append(streamed, bitsKey(sol))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.Unique < 15 || len(streamed) != st.Unique {
				t.Fatalf("streamed %d, stats report %d unique (target 15)", len(streamed), st.Unique)
			}
			sols := s.Solutions()
			if len(sols) != st.Unique {
				t.Fatalf("Solutions() = %d rows, want %d", len(sols), st.Unique)
			}
			for i, sol := range sols {
				if bitsKey(sol) != streamed[i] {
					t.Fatalf("Solutions()[%d] differs from the %d-th streamed solution", i, i)
				}
			}
			// A second call streams only what it adds.
			more := 0
			st2, err := s.Stream(ctx, st.Unique+5, func([]bool) error { more++; return nil })
			if err != nil {
				t.Fatal(err)
			}
			if more != st2.Unique-st.Unique {
				t.Fatalf("second call streamed %d, pool grew by %d", more, st2.Unique-st.Unique)
			}
		})
		t.Run(b.name+"/cancel", func(t *testing.T) {
			// An unbounded target on a large instance: only ctx can stop
			// the stream, and it must stop promptly with what it found.
			s := b.mk(benchgen.OrChain("or-cancel", 40, 4, 99).Formula)
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			delivered := 0
			start := time.Now()
			st, err := s.Stream(ctx, 0, func([]bool) error { delivered++; return nil })
			if err != nil {
				t.Fatal(err)
			}
			if wall := time.Since(start); wall > 5*time.Second {
				t.Errorf("stream outlived its 200ms context by %v", wall)
			}
			if !st.Timeout || st.Exhausted {
				t.Errorf("stream did not end on its context: %+v", st)
			}
			if delivered != st.Unique {
				t.Errorf("delivered %d, stats report %d", delivered, st.Unique)
			}
		})
		t.Run(b.name+"/exhausts-without-deadline", func(t *testing.T) {
			// One model and an unreachable target: the sampler's own
			// staleness and exhaustion guards must end the stream.
			s := b.mk(mustParse(t, andGate))
			done := make(chan sampling.Stats, 1)
			go func() {
				st, err := s.Stream(context.Background(), 1000, nil)
				if err != nil {
					t.Error(err)
				}
				done <- st
			}()
			select {
			case st := <-done:
				if st.Unique != 1 || !st.Exhausted {
					t.Errorf("want 1 unique solution and Exhausted, got %+v", st)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("stream did not end on an exhausted formula")
			}
		})
	}
}

// TestDiffSamplerBatchSizeAfterConstruction: a BatchSize set after
// NewDiffSampler (as satsample's -batch does) takes effect at Stream.
func TestDiffSamplerBatchSizeAfterConstruction(t *testing.T) {
	f := mustParse(t, andGate)
	d := NewDiffSampler(f, 1, tensor.Sequential())
	d.BatchSize = 2048
	st, err := d.Stream(context.Background(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Unique != 1 {
		t.Fatalf("unique = %d want 1", st.Unique)
	}
	if d.vmat.Rows != 2048 {
		t.Fatalf("matrices have %d rows, want 2048", d.vmat.Rows)
	}
}
