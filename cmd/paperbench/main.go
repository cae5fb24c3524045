// Command paperbench regenerates every table and figure of the paper's
// evaluation section on the synthetic benchmark suite:
//
//	paperbench -exp table2            # Table II: throughput, 14 instances
//	paperbench -exp scale             # multi-core scaling: sol/s at 1/4/16 workers
//	paperbench -exp fig2              # Fig. 2: latency vs unique solutions, 60 instances
//	paperbench -exp fig3              # Fig. 3: learning curve + memory model
//	paperbench -exp fig4              # Fig. 4: device speedup, ops reduction, transform time
//	paperbench -exp sched             # continuous-batch scheduler vs the paper's round loop
//	paperbench -exp cache             # durable compile tier: cold compile vs store load vs warm hit
//	paperbench -exp quality           # exact-count coverage + chi-square uniformity oracle
//	paperbench -exp assume            # assumption specialization: re-specialize vs cold compile + conditioned quality
//	paperbench -exp engine            # compiled-engine shape: fusion, registers, memory
//	paperbench -exp all               # everything, in the order above
//
// Flags -target, -timeout, -workers scale effort; the defaults finish in
// minutes rather than the paper's 2-hour timeouts. -small swaps the
// instance sets for the fast 4-instance smoke suite. -csv switches the
// table2 and fig2 output to CSV for plotting. -json PATH additionally
// writes every measured row (instance, sol/s, ticks/rounds, cache
// counters) as machine-readable JSON, so CI can archive the perf
// trajectory across commits.
//
// -check turns the run into a regression gate: after rendering, every
// experiment that ran and has a gate scores its rows, and any failure
// exits 1. The gates (thresholds in gates.go):
//
//	sched    continuous sol/s >= round sol/s on every small smoke instance,
//	         both arms measured, at least two instances
//	scale    solution streams identical across worker counts; on hosts
//	         with >= 4 CPUs, the 4-worker arm at >= 3x the 1-worker arm
//	         on at least two instances
//	cache    store load >= 5x faster than cold compile on at least two
//	         instances
//	quality  coverage 1.0 and uniformity p >= 1e-3 on every instance, at
//	         least two instances measured
//	assume   re-specialization >= 5x faster than cold compile on at least
//	         two Table II instances, and the quality gate's floors on at
//	         least two conditioned spaces
//
// An experiment that cannot run at all (no temp store, an oracle or
// compile error) exits 1 with or without -check.
//
// All experiments share one sampling.Compiler, so each instance is
// transformed and engine-compiled once for the whole run (fig3, fig4 and
// engine reuse table2's compilations under -exp all). SIGINT cancels the
// in-flight sampling run and renders whatever rows completed; the gates
// are skipped, since partial rows can neither pass nor fail a threshold.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/benchgen"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sampling"
	"repro/internal/tensor"
)

// report is the -json output: one object per run holding whichever
// experiments executed plus the shared compile-cache counters.
type report struct {
	Schema  string `json:"schema"` // "paperbench/v1"
	Suite   string `json:"suite"`  // "full" or "small"
	Target  int    `json:"target"`
	Timeout string `json:"timeout"`
	Workers int    `json:"workers"`
	// HostCPUs is runtime.NumCPU() on the measuring host — the context a
	// scale curve must be read in (a 1-CPU runner measures a flat curve).
	HostCPUs int                  `json:"host_cpus"`
	GoOS     string               `json:"goos"`
	GoArch   string               `json:"goarch"`
	Table2   []harness.Table2Row  `json:"table2,omitempty"`
	Scale    []harness.ScaleRow   `json:"scale,omitempty"`
	Sched    []harness.SchedRow   `json:"sched,omitempty"`
	Quality  []harness.QualityRow `json:"quality,omitempty"`
	Assume   []harness.AssumeRow  `json:"assume,omitempty"`
	Fig2     []harness.Fig2Point  `json:"fig2,omitempty"`
	Fig4     []harness.Fig4Row    `json:"fig4,omitempty"`
	// CacheTier is the durable-compile-tier comparison (-exp cache);
	// Cache is the shared in-memory compile cache's counters for the run.
	CacheTier []harness.CacheRow     `json:"cache_tier,omitempty"`
	Cache     sampling.CompilerStats `json:"cache"`
}

// experiment is one -exp arm: run measures, renders and records its rows
// in b.rep; gate, when set, scores those rows under -check and returns one
// message per failed threshold.
type experiment struct {
	name string
	run  func(b *bench, ctx context.Context) error
	gate func(rep *report) []string
}

// experiments is the -exp table, in -exp all order.
var experiments = []experiment{
	{"table2", (*bench).table2, nil},
	{"scale", (*bench).scale, gateScale},
	{"fig2", (*bench).fig2, nil},
	{"fig3", (*bench).fig3, nil},
	{"fig4", (*bench).fig4, nil},
	{"sched", (*bench).sched, gateSched},
	{"cache", (*bench).cache, gateCache},
	{"quality", (*bench).quality, gateQuality},
	{"assume", (*bench).assume, gateAssume},
	{"engine", (*bench).engine, nil},
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table2 | scale | fig2 | fig3 | fig4 | sched | cache | quality | assume | engine | all")
		target   = flag.Int("target", 1000, "minimum unique solutions per sampler (paper: 1000)")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-sampler per-instance timeout (paper: 2h)")
		workers  = flag.Int("workers", 0, "parallel workers (0 = all CPUs)")
		csv      = flag.Bool("csv", false, "emit CSV instead of text tables (table2, fig2)")
		small    = flag.Bool("small", false, "use the fast 4-instance smoke suite")
		jsonPath = flag.String("json", "", "write machine-readable results to this file")
		check    = flag.Bool("check", false, "fail unless every gated experiment that ran meets its thresholds")
	)
	flag.Parse()

	var ran []experiment
	for _, e := range experiments {
		if *exp == "all" || *exp == e.name {
			ran = append(ran, e)
		}
	}
	if len(ran) == 0 {
		fmt.Fprintf(os.Stderr, "paperbench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dev := tensor.Parallel()
	if *workers > 0 {
		dev = tensor.ParallelN(*workers)
	}
	compiler := sampling.NewCompiler(0)
	suite := "full"
	if *small {
		suite = "small"
	}
	b := &bench{
		opt:   harness.RunOptions{Target: *target, Timeout: *timeout, Device: dev, Compiler: compiler},
		small: *small,
		csv:   *csv,
		rep: &report{
			Schema:   "paperbench/v1",
			Suite:    suite,
			Target:   *target,
			Timeout:  timeout.String(),
			Workers:  dev.Workers(),
			HostCPUs: runtime.NumCPU(),
			GoOS:     runtime.GOOS,
			GoArch:   runtime.GOARCH,
		},
	}

	failed := false
	for i, e := range ran {
		if i > 0 {
			fmt.Println()
		}
		if err := e.run(b, ctx); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", e.name, err)
			failed = true
		}
	}
	b.rep.Cache = compiler.Stats()
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, b.rep); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "paperbench: wrote %s\n", *jsonPath)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "paperbench: interrupted — rendered partial results")
	}
	if *check && !checkGates(ctx, ran, b.rep, os.Stderr) {
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// checkGates scores every gated experiment in ran against rep, writing one
// line per failure to w, and reports whether all passed. An interrupted
// run skips every gate: its rows are partial by design.
func checkGates(ctx context.Context, ran []experiment, rep *report, w io.Writer) bool {
	if ctx.Err() != nil {
		fmt.Fprintln(w, "paperbench: interrupted — gates skipped")
		return true
	}
	ok := true
	for _, e := range ran {
		if e.gate == nil {
			continue
		}
		for _, msg := range e.gate(rep) {
			fmt.Fprintf(w, "paperbench: %s check FAILED: %s\n", e.name, msg)
			ok = false
		}
	}
	return ok
}

func writeJSON(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// bench is the state every experiment shares: run options (with the one
// compiler and device), the suite choice, and the report being filled.
type bench struct {
	opt   harness.RunOptions
	small bool
	csv   bool
	rep   *report
}

// suite returns full's instances, or the smoke suite under -small.
func (b *bench) suite(full func() []*benchgen.Instance) []*benchgen.Instance {
	if b.small {
		return benchgen.SmallSuite()
	}
	return full()
}

func (b *bench) table2(ctx context.Context) error {
	fmt.Printf("== Table II: unique-solution throughput (target %d, timeout %v) ==\n\n",
		b.opt.Target, b.opt.Timeout)
	b.rep.Table2 = harness.RunTable2(ctx, b.suite(benchgen.Table2Instances), b.opt)
	if b.csv {
		harness.RenderTable2CSV(os.Stdout, b.rep.Table2)
	} else {
		harness.RenderTable2(os.Stdout, b.rep.Table2)
	}
	return nil
}

func (b *bench) fig2(ctx context.Context) error {
	ins := b.suite(benchgen.Suite60)
	fmt.Printf("== Fig. 2: latency vs unique solutions (%d instances) ==\n\n", len(ins))
	b.rep.Fig2 = harness.RunFig2(ctx, ins, []int{10, 100, 1000}, b.opt)
	if b.csv {
		harness.RenderFig2CSV(os.Stdout, b.rep.Fig2)
	} else {
		harness.RenderFig2(os.Stdout, b.rep.Fig2)
	}
	return nil
}

func (b *bench) fig3(ctx context.Context) error {
	fmt.Println("== Fig. 3: learning dynamics and memory scaling ==")
	fmt.Println()
	res := harness.RunFig3(ctx, b.suite(benchgen.Fig4Instances), 10, []int{100, 1000, 10000, 100000, 1000000}, b.opt)
	harness.RenderFig3(os.Stdout, res)
	return nil
}

func (b *bench) fig4(ctx context.Context) error {
	fmt.Println("== Fig. 4: device ablation, ops reduction, transformation time ==")
	fmt.Println()
	b.rep.Fig4 = harness.RunFig4(ctx, b.suite(benchgen.Fig4Instances), b.opt)
	harness.RenderFig4(os.Stdout, b.rep.Fig4)
	return nil
}

// scale measures the parallel tick's worker scaling: a fixed batch, the
// same seed per arm, one compiled problem per instance, at a sequential
// reference, a typical CI runner and a typical many-core workstation.
func (b *bench) scale(ctx context.Context) error {
	fmt.Printf("== Scale: worker-count scaling of the parallel tick (target %d, timeout %v) ==\n\n",
		b.opt.Target, b.opt.Timeout)
	b.rep.Scale = harness.RunScale(ctx, b.suite(benchgen.Table2Instances), []int{1, 4, 16}, 2, b.opt)
	harness.RenderScale(os.Stdout, b.rep.Scale)
	if b.rep.HostCPUs < scaleMinCPUs {
		fmt.Fprintf(os.Stderr, "paperbench: scale gate's speedup leg skipped — host has %d CPUs, need >= %d\n",
			b.rep.HostCPUs, scaleMinCPUs)
	}
	return nil
}

// sched measures the continuous-batch scheduler (Sampler.SampleUntil)
// against the paper's round-synchronous loop (Sampler.SampleRounds, the
// same tile engine driven in rounds) with the same compiled problem, seed
// and batch per instance, on the small smoke suite. Three repeats per mode
// keep the best arm, damping machine noise on sub-millisecond instances.
func (b *bench) sched(ctx context.Context) error {
	fmt.Printf("== Scheduler: continuous batching vs round barrier (target %d, timeout %v) ==\n\n",
		b.opt.Target, b.opt.Timeout)
	b.rep.Sched = harness.RunSched(ctx, benchgen.SmallSuite(), 3, b.opt)
	harness.RenderSched(os.Stdout, b.rep.Sched)
	return nil
}

// cache measures the durable compile tier: per instance, the cold
// transform-and-compile time, the time to load the same problem back from
// a content-addressed store (read + GDSP decode), and the in-memory warm
// hit. The store lives in a throwaway directory — the experiment measures
// the codec, not a shared deployment. Three repeats per arm keep the
// fastest reading, as sched does, so one slow compile or load cannot
// move the gate.
func (b *bench) cache(ctx context.Context) error {
	fmt.Println("== Cache: durable compile tier — cold compile vs store load vs warm hit ==")
	fmt.Println()
	dir, err := os.MkdirTemp("", "paperbench-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if b.rep.CacheTier, err = harness.RunCache(ctx, b.suite(benchgen.Table2Instances), dir, b.opt); err != nil {
		return err
	}
	harness.RenderCache(os.Stdout, b.rep.CacheTier)
	return nil
}

// quality measures the GD sampler against the exact-count oracle on the
// tiny quality suite.
func (b *bench) quality(ctx context.Context) (err error) {
	fmt.Println("== Quality: exact-count coverage and chi-square uniformity ==")
	fmt.Println()
	b.rep.Quality, err = harness.RunQuality(ctx, benchgen.QualitySuite(), b.opt)
	harness.RenderQuality(os.Stdout, b.rep.Quality)
	return err
}

// assume measures assumption specialization over the Table II timing
// instances plus the exactly-countable quality suite, which exercises the
// conditioned-quality leg the big instances are too large for.
func (b *bench) assume(ctx context.Context) error {
	fmt.Println("== Assume: re-specialization vs cold compile, conditioned quality ==")
	fmt.Println()
	ins := append(b.suite(benchgen.Table2Instances), benchgen.QualitySuite()...)
	b.rep.Assume = harness.RunAssume(ctx, ins, b.opt)
	harness.RenderAssume(os.Stdout, b.rep.Assume)
	return nil
}

// engine reports the compiled execution engine's shape per instance:
// fused kernel count, value slots after inverter fusion + dead-code
// elimination, adjoint registers after backward-liveness allocation, the
// cache tile, and the Fig. 3 memory model at two batch sizes. Problems
// come from the shared compiler — under -exp all this is pure cache hits.
func (b *bench) engine(ctx context.Context) error {
	fmt.Println("== Execution engine: fusion, register allocation, memory model ==")
	fmt.Println()
	fmt.Printf("%-22s %8s %8s %8s %8s %8s %6s %12s %12s\n",
		"instance", "inputs", "gates", "ops", "slots", "gregs", "tile", "MB@4096", "MB@1M")
	compiler := b.opt.Compiler
	for _, in := range b.suite(benchgen.Fig4Instances) {
		if ctx.Err() != nil {
			break
		}
		p, err := compiler.Compile(in.Formula)
		if err != nil {
			fmt.Printf("%-22s compile failed: %v\n", in.Name, err)
			continue
		}
		s, err := p.Core().NewSampler(core.Config{BatchSize: 4096, Device: b.opt.Device})
		if err != nil {
			fmt.Printf("%-22s sampler failed: %v\n", in.Name, err)
			continue
		}
		es := s.EngineStats()
		mb := func(batch int) float64 {
			return float64(p.Core().MemoryEstimate(core.Shape{Workers: b.opt.Device.Workers(), Batch: batch})) / (1 << 20)
		}
		fmt.Printf("%-22s %8d %8d %8d %8d %8d %6d %12.2f %12.1f\n",
			in.Name, es.Inputs, p.Extraction().Circuit.NumGates(), es.Ops, es.ValSlots, es.GradRegs, es.Tile,
			mb(4096), mb(1_000_000))
	}
	cs := compiler.Stats()
	fmt.Printf("\ncompile cache: %d hits, %d misses, %d entries\n", cs.Hits, cs.Misses, cs.Entries)
	return nil
}
