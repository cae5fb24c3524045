// Package repro's root benchmarks regenerate the paper's tables and
// figures as testing.B benchmarks — one bench family per experiment.
// Run with: go test -bench=. -benchmem
//
// Table II  -> BenchmarkTable2/*       (per-instance sampler throughput)
// Fig. 2    -> BenchmarkFig2/*         (latency to reach a solution count)
// Fig. 3    -> BenchmarkFig3Iters/*    (learning-curve round)
//
//	BenchmarkFig3Memory/*   (memory-model evaluation)
//
// Fig. 4    -> BenchmarkFig4Devices/*  (sequential vs parallel device)
//
//	BenchmarkTransform/*    (Fig. 4 right: CNF→circuit time)
//
// Custom metrics: sol/s is unique-solutions per second; opsred is the
// Fig. 4 bit-operation reduction factor.
package repro

import (
	"context"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/benchgen"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/harness"
	"repro/internal/sampling"
	"repro/internal/tensor"
)

// benchInstances returns a small-but-representative slice of Table II
// instances (one per family) so the full bench run stays in CI budget.
// Use cmd/paperbench for the complete 14-instance and 60-instance sweeps.
func benchInstances() []*benchgen.Instance {
	return []*benchgen.Instance{
		benchgen.OrChain("or-50-10-7-UC-10", 50, 4, 5010),
		benchgen.QChain("90-10-10-q", 15, 24, 9020),
		benchgen.Iscas("s15850a-mini", 300, 3000, 7, 15874),
		benchgen.Prod("Prod-mini", 150, 30, 8),
	}
}

// BenchmarkTable2 reports per-sampler unique-solution throughput.
func BenchmarkTable2(b *testing.B) {
	for _, in := range benchInstances() {
		in := in
		b.Run("this-work/"+in.Name, func(b *testing.B) {
			ext, err := extract.Transform(in.Formula)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			total := 0
			for i := 0; i < b.N; i++ {
				s, err := core.New(in.Formula, ext, core.Config{
					BatchSize: 4096, Seed: int64(i + 1), Device: tensor.Parallel(),
				})
				if err != nil {
					b.Fatal(err)
				}
				st := s.SampleUntil(500, 5*time.Second)
				total += st.Unique
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sol/s")
		})
		b.Run("cmsgen/"+in.Name, func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				s := baselines.NewCMSGenLike(in.Formula, int64(i+1))
				st := sampling.SampleUntil(s, 500, 5*time.Second)
				total += st.Unique
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sol/s")
		})
		b.Run("diffsampler/"+in.Name, func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				s := baselines.NewDiffSampler(in.Formula, int64(i+1), tensor.Parallel())
				st := sampling.SampleUntil(s, 500, 5*time.Second)
				total += st.Unique
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sol/s")
		})
		b.Run("unigen/"+in.Name, func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				s := baselines.NewUniGenLike(in.Formula, int64(i+1)).WithSamplingSet(in.Enc.InputVar)
				st := sampling.SampleUntil(s, 100, 5*time.Second)
				total += st.Unique
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sol/s")
		})
	}
}

// BenchmarkFig2 measures latency to reach fixed unique-solution counts with
// the core sampler (the paper's latency-vs-count series).
func BenchmarkFig2(b *testing.B) {
	in := benchInstances()[0]
	ext, err := extract.Transform(in.Formula)
	if err != nil {
		b.Fatal(err)
	}
	for _, count := range []int{10, 100, 1000} {
		count := count
		b.Run(in.Name+"/n="+itoa(count), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := core.New(in.Formula, ext, core.Config{
					BatchSize: 4096, Seed: int64(i + 1), Device: tensor.Parallel(),
				})
				if err != nil {
					b.Fatal(err)
				}
				st := s.SampleUntil(count, 5*time.Second)
				if st.Unique < count {
					b.Fatalf("reached only %d/%d solutions", st.Unique, count)
				}
			}
		})
	}
}

// BenchmarkFig3Iters times one traced learning-curve round (Fig. 3 left).
func BenchmarkFig3Iters(b *testing.B) {
	for _, in := range benchInstances()[:2] {
		in := in
		b.Run(in.Name, func(b *testing.B) {
			ext, err := extract.Transform(in.Formula)
			if err != nil {
				b.Fatal(err)
			}
			s, err := core.New(in.Formula, ext, core.Config{
				BatchSize: 2048, Iterations: 10, Device: tensor.Parallel(),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.RoundTrace()
			}
		})
	}
}

// BenchmarkFig3Memory evaluates the batch-size memory model (Fig. 3 right).
func BenchmarkFig3Memory(b *testing.B) {
	in := benchInstances()[2]
	ext, err := extract.Transform(in.Formula)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.Compile(in.Formula, ext)
	if err != nil {
		b.Fatal(err)
	}
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, batch := range []int{100, 1000, 10000, 100000, 1000000} {
			sink += p.MemoryEstimate(core.Shape{Workers: 1, Batch: batch})
		}
	}
	if sink == 0 {
		b.Fatal("memory model returned zero")
	}
	b.ReportMetric(float64(p.MemoryEstimate(core.Shape{Workers: 1, Batch: 1000000}))/(1<<20), "MB@1M")
}

// BenchmarkFig4Devices compares sequential and parallel execution of the
// same GD rounds (Fig. 4 left: the GPU-vs-CPU stand-in ablation).
func BenchmarkFig4Devices(b *testing.B) {
	for _, in := range benchInstances() {
		in := in
		ext, err := extract.Transform(in.Formula)
		if err != nil {
			b.Fatal(err)
		}
		for _, dev := range []tensor.Device{tensor.Sequential(), tensor.Parallel()} {
			dev := dev
			b.Run(in.Name+"/"+dev.Name(), func(b *testing.B) {
				s, err := core.New(in.Formula, ext, core.Config{
					BatchSize: 2048, Device: dev,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Round()
				}
				st := s.Stats()
				b.ReportMetric(float64(st.Unique)/b.Elapsed().Seconds(), "sol/s")
			})
		}
	}
}

// BenchmarkEngineStep isolates the fused execution engine: rounds of pure
// GD iterations (no harden/verify/dedup), reported as row-iterations per
// second. allocs/op should read 0 on the sequential arm — the fused
// pipeline runs entirely from preallocated per-worker scratch.
func BenchmarkEngineStep(b *testing.B) {
	for _, in := range benchInstances() {
		in := in
		b.Run(in.Name, func(b *testing.B) {
			ext, err := extract.Transform(in.Formula)
			if err != nil {
				b.Fatal(err)
			}
			const batch = 4096
			s, err := core.New(in.Formula, ext, core.Config{
				BatchSize: batch, Iterations: 5, Device: tensor.Sequential(),
			})
			if err != nil {
				b.Fatal(err)
			}
			s.Round() // warm up scratch and the solution pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkTransform times the CNF→multi-level-function transformation
// (Fig. 4 right) and reports the ops-reduction factor (Fig. 4 middle). The
// extra cold-0 row is a formula the size of perfbench's serve-cold pool,
// whose requests are dominated by this transformation; it stays out of
// benchInstances so BenchmarkTable2 keeps its rows.
func BenchmarkTransform(b *testing.B) {
	for _, in := range append(benchInstances(), benchgen.Iscas("cold-0", 120, 1200, 4, 6001)) {
		in := in
		b.Run(in.Name, func(b *testing.B) {
			var red float64
			for i := 0; i < b.N; i++ {
				res, err := extract.Transform(in.Formula)
				if err != nil {
					b.Fatal(err)
				}
				if ops := res.Circuit.OpCount2(); ops > 0 {
					red = float64(in.Formula.OpCount2()) / float64(ops)
				}
			}
			b.ReportMetric(red, "opsred")
		})
	}
}

// BenchmarkHarnessTable2 exercises the full harness path end to end on the
// smoke suite (integration-level benchmark).
func BenchmarkHarnessTable2(b *testing.B) {
	ins := benchgen.SmallSuite()
	for i := 0; i < b.N; i++ {
		rows := harness.RunTable2(context.Background(), ins, harness.RunOptions{
			Target: 50, Timeout: 2 * time.Second, Device: tensor.Parallel(),
		})
		if len(rows) != len(ins) {
			b.Fatal("missing rows")
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
