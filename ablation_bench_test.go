package repro

// Ablation benchmarks for the design choices DESIGN.md calls out:
// GD iteration count (paper fixes 5), batch size (paper sweeps 100…10⁶),
// the structural sweep pass (the paper's "can be further optimized" hook,
// measured as a second transform stage).

import (
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/tensor"
)

// BenchmarkAblationIterations sweeps GD iterations per round: fewer
// iterations mean more rounds to reach the same count; more mean each
// round costs more but converges batter per row.
func BenchmarkAblationIterations(b *testing.B) {
	in := benchgen.OrChain("or-50-10-7-UC-10", 50, 4, 5010)
	ext, err := extract.Transform(in.Formula)
	if err != nil {
		b.Fatal(err)
	}
	for _, iters := range []int{1, 3, 5, 10, 20} {
		iters := iters
		b.Run("iters="+itoa(iters), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				s, err := core.New(in.Formula, ext, core.Config{
					BatchSize: 4096, Iterations: iters, Seed: int64(i + 1),
					Device: tensor.Parallel(),
				})
				if err != nil {
					b.Fatal(err)
				}
				st := s.SampleUntil(1000, 5*time.Second)
				total += st.Unique
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sol/s")
		})
	}
}

// BenchmarkAblationBatch sweeps the batch size at fixed iterations.
func BenchmarkAblationBatch(b *testing.B) {
	in := benchgen.QChain("90-10-10-q", 15, 24, 9020)
	ext, err := extract.Transform(in.Formula)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{256, 1024, 4096, 16384} {
		batch := batch
		b.Run("batch="+itoa(batch), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				s, err := core.New(in.Formula, ext, core.Config{
					BatchSize: batch, Seed: int64(i + 1), Device: tensor.Parallel(),
				})
				if err != nil {
					b.Fatal(err)
				}
				st := s.SampleUntil(500, 5*time.Second)
				total += st.Unique
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sol/s")
		})
	}
}

// BenchmarkAblationSweep measures the structural-sweep hook: transform,
// optionally sweep + re-encode, then sample. The swept pipeline pays a
// second Tseitin+transform but runs GD on a smaller tape.
func BenchmarkAblationSweep(b *testing.B) {
	in := benchgen.Prod("Prod-mini", 150, 30, 8)
	b.Run("raw", func(b *testing.B) {
		ext, err := extract.Transform(in.Formula)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(ext.Circuit.OpCount2()), "ops")
		total := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := core.New(in.Formula, ext, core.Config{
				BatchSize: 1024, Seed: int64(i + 1), Device: tensor.Parallel(),
			})
			if err != nil {
				b.Fatal(err)
			}
			st := s.SampleUntil(200, 5*time.Second)
			total += st.Unique
		}
		b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sol/s")
	})
	b.Run("swept", func(b *testing.B) {
		ext, err := extract.Transform(in.Formula)
		if err != nil {
			b.Fatal(err)
		}
		swept := ext.Circuit.Sweep()
		enc := swept.Tseitin()
		ext2, err := extract.Transform(enc.Formula)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(ext2.Circuit.OpCount2()), "ops")
		total := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := core.New(enc.Formula, ext2, core.Config{
				BatchSize: 1024, Seed: int64(i + 1), Device: tensor.Parallel(),
			})
			if err != nil {
				b.Fatal(err)
			}
			st := s.SampleUntil(200, 5*time.Second)
			total += st.Unique
		}
		b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sol/s")
	})
}

// BenchmarkAblationWorkers sweeps the worker count of the parallel device
// (the fine-grained version of the Fig. 4 left ablation).
func BenchmarkAblationWorkers(b *testing.B) {
	in := benchgen.Iscas("s15850a-mini", 300, 3000, 7, 15874)
	ext, err := extract.Transform(in.Formula)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run("workers="+itoa(w), func(b *testing.B) {
			s, err := core.New(in.Formula, ext, core.Config{
				BatchSize: 2048, Device: tensor.ParallelN(w),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Round()
			}
		})
	}
}
