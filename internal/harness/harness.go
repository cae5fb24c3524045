// Package harness drives the paper's experiments end to end: it wires the
// benchmark generator, the sampling service layer (compile cache, sessions),
// the baseline samplers and the renderers together and produces the rows/series
// the paper reports — Table II (throughput), Fig. 2 (latency vs unique
// solutions), Fig. 3 (learning dynamics and memory) and Fig. 4 (device
// ablation, ops reduction, transformation time) — and the ablations and
// gates beside them: scheduler, scaling, compile tier, assumption
// specialization, and sample quality against exact model counts.
//
// Every sampler — the core GD session and the three baselines — is driven
// through the unified sampling.Sampler interface, and every experiment
// shares one sampling.Compiler, so an instance is transformed and compiled
// exactly once no matter how many samplers, devices or thresholds touch it.
// The Run functions honour context cancellation between sampling runs and
// return whatever rows completed.
package harness

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/benchgen"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/quality"
	"repro/internal/sampling"
	"repro/internal/sat"
	"repro/internal/store"
	"repro/internal/tensor"
)

// RunOptions configure an experiment run. Zero values take defaults chosen
// so the full suite completes on a laptop in minutes (the paper's 2-hour
// timeouts are impractical in CI; scale Timeout up for closer replication).
type RunOptions struct {
	// Target is the minimum number of unique solutions requested from every
	// sampler (paper: 1000).
	Target int
	// Timeout bounds each sampler on each instance (paper: 2h).
	Timeout time.Duration
	// Device used by the gradient-based samplers.
	Device tensor.Device
	// MemoryBudget bounds the core sampler's tensor allocation per
	// instance; the batch size adapts to it. Default 256 MiB.
	MemoryBudget int64
	// Seed for all randomized components.
	Seed int64
	// Compiler is the shared compile cache. Nil selects a fresh default
	// cache, scoped to the Run call; pass one explicitly to share compiled
	// problems across experiments.
	Compiler *sampling.Compiler
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Target <= 0 {
		o.Target = 1000
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.Device == (tensor.Device{}) {
		o.Device = tensor.Parallel()
	}
	if o.MemoryBudget <= 0 {
		o.MemoryBudget = 256 << 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Compiler == nil {
		o.Compiler = sampling.NewCompiler(0)
	}
	return o
}

// sessionConfig maps run options onto a session configuration.
func (o RunOptions) sessionConfig() sampling.SessionConfig {
	return sampling.SessionConfig{
		Device:       o.Device,
		Seed:         o.Seed,
		MemoryBudget: o.MemoryBudget,
	}
}

// NewCoreSession compiles f through opt.Compiler and opens one sampling
// session over the shared problem: the core sampler behind the unified
// sampling.Sampler interface. The batch size adapts to the instance size
// under the memory budget.
func NewCoreSession(f *cnf.Formula, opt RunOptions) (*sampling.Session, error) {
	opt = opt.withDefaults()
	p, err := opt.Compiler.Compile(f)
	if err != nil {
		return nil, err
	}
	return p.NewSession(opt.sessionConfig())
}

// buildBaselines constructs the three comparison samplers for an instance;
// each implements the unified streaming interface. The UniGen-style sampler
// receives the instance's input variables as its sampling set, matching
// the independent-support annotations the real tool consumes on the Meel
// benchmark suite.
func buildBaselines(in *benchgen.Instance, opt RunOptions) []sampling.Sampler {
	return []sampling.Sampler{
		baselines.NewUniGenLike(in.Formula, opt.Seed).WithSamplingSet(in.Enc.InputVar),
		baselines.NewCMSGenLike(in.Formula, opt.Seed),
		baselines.NewDiffSampler(in.Formula, opt.Seed, opt.Device),
	}
}

// sampleOnce drives s toward target under both the run timeout and the
// caller's context.
func sampleOnce(ctx context.Context, s sampling.Sampler, target int, timeout time.Duration) sampling.Stats {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	st, _ := s.Stream(ctx, target, nil)
	return st
}

// Table2Row is one row of the Table II reproduction.
type Table2Row struct {
	Instance   string
	PI, PO     int
	Vars       int
	Clauses    int
	Throughput map[string]float64 // sampler name -> unique solutions/sec
	Unique     map[string]int     // sampler name -> solutions found
	Calls      map[string]int     // sampler name -> scheduler ticks / rounds / solver calls
	TimedOut   map[string]bool
	Speedup    float64 // this-work vs best baseline
}

// RunTable2 reproduces Table II on the given instances. Cancelling ctx
// stops after the in-flight sampler and returns the completed rows.
func RunTable2(ctx context.Context, instances []*benchgen.Instance, opt RunOptions) []Table2Row {
	opt = opt.withDefaults()
	rows := make([]Table2Row, 0, len(instances))
	for _, in := range instances {
		if ctx.Err() != nil {
			break
		}
		rows = append(rows, runTable2Instance(ctx, in, opt))
	}
	return rows
}

func runTable2Instance(ctx context.Context, in *benchgen.Instance, opt RunOptions) Table2Row {
	pi, po, vars, clauses := in.Stats()
	row := Table2Row{
		Instance:   in.Name,
		PI:         pi,
		PO:         po,
		Vars:       vars,
		Clauses:    clauses,
		Throughput: map[string]float64{},
		Unique:     map[string]int{},
		Calls:      map[string]int{},
		TimedOut:   map[string]bool{},
	}
	run := func(s sampling.Sampler) {
		st := sampleOnce(ctx, s, opt.Target, opt.Timeout)
		row.Throughput[s.Name()] = st.Throughput()
		row.Unique[s.Name()] = st.Unique
		row.Calls[s.Name()] = st.Calls
		row.TimedOut[s.Name()] = st.Timeout && st.Unique < opt.Target
	}
	ours, err := NewCoreSession(in.Formula, opt)
	if err == nil {
		run(ours)
	} else {
		row.TimedOut["this-work"] = true
	}
	for _, b := range buildBaselines(in, opt) {
		if ctx.Err() != nil {
			break
		}
		run(b)
	}
	best := 0.0
	for name, tp := range row.Throughput {
		if name != "this-work" && tp > best {
			best = tp
		}
	}
	if best > 0 {
		row.Speedup = row.Throughput["this-work"] / best
	}
	return row
}

// Fig2Point is one (sampler, instance, unique-count, latency) sample for
// the Fig. 2 log-log scatter.
type Fig2Point struct {
	Sampler   string
	Instance  string
	Unique    int
	LatencyMs float64
}

// RunFig2 sweeps solution-count thresholds per sampler per instance,
// reusing each sampler's accumulated pool so latency is cumulative, exactly
// like the paper's runtime-versus-count scatter.
func RunFig2(ctx context.Context, instances []*benchgen.Instance, thresholds []int, opt RunOptions) []Fig2Point {
	opt = opt.withDefaults()
	if len(thresholds) == 0 {
		thresholds = []int{10, 100, 1000}
	}
	var pts []Fig2Point
	for _, in := range instances {
		if ctx.Err() != nil {
			break
		}
		samplers := buildBaselines(in, opt)
		if ours, err := NewCoreSession(in.Formula, opt); err == nil {
			samplers = append([]sampling.Sampler{ours}, samplers...)
		}
		for _, s := range samplers {
			for _, th := range thresholds {
				if ctx.Err() != nil {
					break
				}
				st := sampleOnce(ctx, s, th, opt.Timeout)
				pts = append(pts, Fig2Point{
					Sampler:   s.Name(),
					Instance:  in.Name,
					Unique:    st.Unique,
					LatencyMs: float64(st.Elapsed.Microseconds()) / 1000,
				})
				if st.Unique < th {
					break // timed out or exhausted; larger thresholds won't improve
				}
			}
		}
	}
	return pts
}

// Fig3Result bundles the learning-dynamics sweep for one instance.
type Fig3Result struct {
	Instance string
	// Curve[i] is the cumulative unique-solution count after i GD
	// iterations within one traced round (Fig. 3 left).
	Curve []int
	// MemoryMB maps batch size to estimated tensor memory in MiB
	// (Fig. 3 right).
	MemoryMB map[int]float64
}

// RunFig3 reproduces Fig. 3 on the given instances.
func RunFig3(ctx context.Context, instances []*benchgen.Instance, iterations int, batches []int, opt RunOptions) []Fig3Result {
	opt = opt.withDefaults()
	if iterations <= 0 {
		iterations = 10
	}
	if len(batches) == 0 {
		batches = []int{100, 1000, 10000, 100000, 1000000}
	}
	var out []Fig3Result
	for _, in := range instances {
		if ctx.Err() != nil {
			break
		}
		res := Fig3Result{Instance: in.Name, MemoryMB: map[int]float64{}}
		p, err := opt.Compiler.Compile(in.Formula)
		if err != nil {
			continue
		}
		tracer, err := p.Core().NewSampler(core.Config{
			BatchSize:  2048,
			Iterations: iterations,
			Device:     opt.Device,
			Seed:       opt.Seed,
		})
		if err != nil {
			continue
		}
		res.Curve = tracer.RoundTrace()
		for _, b := range batches {
			res.MemoryMB[b] = float64(p.Core().MemoryEstimate(core.Shape{Workers: opt.Device.Workers(), Batch: b})) / (1 << 20)
		}
		out = append(out, res)
	}
	return out
}

// Fig4Row is the three-part ablation for one instance: device speedup,
// ops reduction, transformation time.
type Fig4Row struct {
	Instance      string
	SeqThroughput float64 // unique sol/s, sequential device
	ParThroughput float64 // unique sol/s, parallel device
	Speedup       float64 // parallel over sequential
	OpsCNF        int
	OpsCircuit    int
	OpsReduction  float64
	TransformTime time.Duration
}

// RunFig4 reproduces Fig. 4 on the given instances. Both device
// measurements run as sessions over the same compiled problem, so the
// ablation isolates execution cost from compilation.
func RunFig4(ctx context.Context, instances []*benchgen.Instance, opt RunOptions) []Fig4Row {
	opt = opt.withDefaults()
	var rows []Fig4Row
	for _, in := range instances {
		if ctx.Err() != nil {
			break
		}
		p, err := opt.Compiler.Compile(in.Formula)
		if err != nil {
			continue
		}
		ext := p.Extraction()
		row := Fig4Row{
			Instance:      in.Name,
			OpsCNF:        in.Formula.OpCount2(),
			OpsCircuit:    ext.Circuit.OpCount2(),
			TransformTime: ext.TransformTime,
		}
		if row.OpsCircuit > 0 {
			row.OpsReduction = float64(row.OpsCNF) / float64(row.OpsCircuit)
		}
		measure := func(dev tensor.Device) float64 {
			cfg := opt.sessionConfig()
			cfg.Device = dev
			s, err := p.NewSession(cfg)
			if err != nil {
				return 0
			}
			st := sampleOnce(ctx, s, opt.Target, opt.Timeout)
			return st.Throughput()
		}
		row.SeqThroughput = measure(tensor.Sequential())
		row.ParThroughput = measure(opt.Device)
		if row.SeqThroughput > 0 {
			row.Speedup = row.ParThroughput / row.SeqThroughput
		}
		rows = append(rows, row)
	}
	return rows
}

// SchedRow is the scheduler ablation for one instance: the continuous-batch
// scheduler versus the paper's round-synchronous loop, core samplers over
// the same compiled problem with the same seed and batch.
type SchedRow struct {
	Instance    string
	ContSolS    float64 // unique sol/s, continuous scheduler
	RoundSolS   float64 // unique sol/s, round loop
	Ratio       float64 // continuous over round
	ContUnique  int
	RoundUnique int
	ContIters   int // GD iterations the continuous run spent
	RoundIters  int // GD iterations the round run spent
	Retired     int // rows retired satisfied (continuous)
	Stalled     int // rows recycled at the restart cap (continuous)
}

// RunSched measures the continuous-batch scheduler against the
// round-synchronous loop on the given instances (the scheduler ablation,
// and the CI smoke check's data source). The arms run
// core.Sampler.SampleUntil and core.Sampler.SampleRounds over one compiled
// problem at the batch a session would pick under the memory budget; Repeats > 1 keeps the best
// arm of each mode, damping scheduler-independent noise on small
// instances. Cancellation is honoured between runs.
func RunSched(ctx context.Context, instances []*benchgen.Instance, repeats int, opt RunOptions) []SchedRow {
	opt = opt.withDefaults()
	if repeats < 1 {
		repeats = 1
	}
	var rows []SchedRow
	for _, in := range instances {
		if ctx.Err() != nil {
			break
		}
		p, err := opt.Compiler.Compile(in.Formula)
		if err != nil {
			continue
		}
		batch := p.BatchFor(opt.sessionConfig())
		measure := func(rounds bool, seed int64) core.Stats {
			s, serr := p.Core().NewSampler(core.Config{
				BatchSize: batch, Seed: seed, Device: opt.Device,
			})
			if serr != nil || ctx.Err() != nil {
				return core.Stats{}
			}
			if rounds {
				return s.SampleRounds(opt.Target, opt.Timeout)
			}
			return s.SampleUntil(opt.Target, opt.Timeout)
		}
		row := SchedRow{Instance: in.Name}
		for rep := 0; rep < repeats; rep++ {
			seed := opt.Seed + int64(rep)
			if cst := measure(false, seed); cst.Throughput() > row.ContSolS {
				row.ContSolS = cst.Throughput()
				row.ContUnique = cst.Unique
				row.ContIters = cst.Iterations
				row.Retired = cst.Retired
				row.Stalled = cst.Stalled
			}
			if rst := measure(true, seed); rst.Throughput() > row.RoundSolS {
				row.RoundSolS = rst.Throughput()
				row.RoundUnique = rst.Unique
				row.RoundIters = rst.Iterations
			}
		}
		if row.RoundSolS > 0 {
			row.Ratio = row.ContSolS / row.RoundSolS
		}
		rows = append(rows, row)
	}
	return rows
}

// ScaleArm is one worker-count measurement within a ScaleRow.
type ScaleArm struct {
	Workers int
	SolS    float64 // unique sol/s at this worker count (best of repeats)
	Unique  int
	Iters   int     // GD iterations the best run spent
	Speedup float64 // SolS over the first (reference) arm's SolS
}

// ScaleRow is the multi-core scaling curve for one instance: identical
// fixed-batch sessions over one compiled problem, one arm per worker
// count. Identical reports whether every arm that reached the target
// produced the same unique-solution count — the observable face of the
// scheduler's bit-identical-stream invariant.
type ScaleRow struct {
	Instance  string
	Batch     int
	Arms      []ScaleArm
	Identical bool
}

// RunScale measures the parallel tick's scaling on the given instances
// (the multi-core tick's headline curve, and the scale gate's data
// source). The batch is fixed across arms — adapting it to a memory
// budget would grow per-worker scratch with the worker count and
// confound the curve — and each repeat drives every arm with the same
// seed so their streams are directly comparable.
func RunScale(ctx context.Context, instances []*benchgen.Instance, workers []int, repeats int, opt RunOptions) []ScaleRow {
	opt = opt.withDefaults()
	if len(workers) == 0 {
		workers = []int{1, 4, 16}
	}
	if repeats < 1 {
		repeats = 1
	}
	const scaleBatch = 4096
	var rows []ScaleRow
	for _, in := range instances {
		if ctx.Err() != nil {
			break
		}
		p, err := opt.Compiler.Compile(in.Formula)
		if err != nil {
			continue
		}
		row := ScaleRow{Instance: in.Name, Batch: scaleBatch, Identical: true}
		row.Arms = make([]ScaleArm, len(workers))
		for i, w := range workers {
			row.Arms[i].Workers = w
		}
		for rep := 0; rep < repeats; rep++ {
			seed := opt.Seed + int64(rep)
			uniq := make([]int, len(workers))
			allHit := true
			for i, w := range workers {
				if ctx.Err() != nil {
					break
				}
				cfg := opt.sessionConfig()
				cfg.BatchSize = scaleBatch
				cfg.Device = tensor.ParallelN(w)
				cfg.Seed = seed
				s, serr := p.NewSession(cfg)
				if serr != nil {
					allHit = false
					continue
				}
				st := sampleOnce(ctx, s, opt.Target, opt.Timeout)
				uniq[i] = st.Unique
				if st.Unique < opt.Target {
					allHit = false
				}
				if tp := st.Throughput(); tp > row.Arms[i].SolS {
					row.Arms[i].SolS = tp
					row.Arms[i].Unique = st.Unique
					row.Arms[i].Iters = s.Core().Stats().Iterations
				}
			}
			// Unique counts are only comparable when every arm sampled the
			// same deterministic prefix, i.e. all of them reached the target.
			if allHit {
				for i := 1; i < len(uniq); i++ {
					if uniq[i] != uniq[0] {
						row.Identical = false
					}
				}
			}
		}
		if ref := row.Arms[0].SolS; ref > 0 {
			for i := range row.Arms {
				row.Arms[i].Speedup = row.Arms[i].SolS / ref
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// CacheRow measures the durable compile tier on one instance: the cold
// transform-and-compile path, the store-load path (hash + disk read + GDSP
// decode through a fresh compiler), and the warm in-memory hit.
type CacheRow struct {
	Instance    string
	Vars        int
	Clauses     int
	ColdCompile time.Duration
	StoreLoad   time.Duration
	WarmHit     time.Duration
	BlobBytes   int64   // encoded artifact size on disk
	Speedup     float64 // ColdCompile over StoreLoad
}

// RunCache measures cold-compile vs store-load vs warm-hit on the given
// instances (the durable tier's headline numbers, and the cache
// gate's data source). dir hosts the content-addressed artifacts; each
// instance compiles cold through a store-less compiler, is encoded into the
// store, then loads back through a fresh compiler whose only warm tier is
// the disk — so the three arms isolate transform+compile, read+decode, and
// LRU lookup. A load arm that fails to hit the disk tier drops its row
// rather than report a compile time as a load time.
func RunCache(ctx context.Context, instances []*benchgen.Instance, dir string, opt RunOptions) ([]CacheRow, error) {
	opt = opt.withDefaults()
	st, err := store.Open(dir, 0, nil)
	if err != nil {
		return nil, err
	}
	var rows []CacheRow
	for _, in := range instances {
		if ctx.Err() != nil {
			break
		}
		_, _, vars, clauses := in.Stats()
		row := CacheRow{Instance: in.Name, Vars: vars, Clauses: clauses}

		cold := sampling.NewCompiler(0)
		t0 := time.Now()
		p, err := cold.Compile(in.Formula)
		if err != nil {
			continue
		}
		row.ColdCompile = time.Since(t0)

		blob, err := p.Core().MarshalBinary()
		if err != nil {
			continue
		}
		if err := st.Put(p.Core().Key(), blob); err != nil {
			continue
		}
		row.BlobBytes = int64(len(blob))

		loader := sampling.NewCompiler(0).WithStore(st)
		t0 = time.Now()
		if _, err := loader.Compile(in.Formula); err != nil {
			continue
		}
		row.StoreLoad = time.Since(t0)
		if cs := loader.Stats(); cs.DiskHits != 1 {
			continue
		}
		t0 = time.Now()
		if _, err := loader.Compile(in.Formula); err != nil {
			continue
		}
		row.WarmHit = time.Since(t0)
		if row.StoreLoad > 0 {
			row.Speedup = float64(row.ColdCompile) / float64(row.StoreLoad)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AssumeRow is one instance's assumption-specialization measurement: the
// cost of conditioning a compiled artifact on pinned literals versus
// compiling from scratch, plus (on exactly-countable instances) the
// conditioned sampler's quality against the conditioned oracle.
type AssumeRow struct {
	Instance    string
	Vars        int
	Clauses     int
	Pins        int
	ColdCompile time.Duration
	Specialize  time.Duration
	Speedup     float64 // ColdCompile over Specialize

	// Conditioned quality leg — meaningful only when QualityMeasured is
	// set (the conditioned formula fit the exact-count limits).
	QualityMeasured bool
	Exact           float64 // exact conditioned (projected) model count
	Distinct        int     // distinct solutions the specialized sampler found at saturation
	Coverage        float64 // Distinct / Exact
	ChiSquare       float64
	DoF             int
	P               float64
}

// assumePins picks pin literals agreeing with a model of the instance, on
// the lowest-numbered primary inputs of the compiled problem — so the
// specialized instance is satisfiable by construction and the pins
// actually narrow the engine (a pin on a derived variable only adds an
// output constraint). At least one primary input is always left free.
func assumePins(p *core.Problem, f *cnf.Formula) []cnf.Lit {
	s := sat.NewSolver(f, sat.Options{})
	if s.Solve() != sat.Sat {
		return nil
	}
	model := s.Model()
	pis := p.Extraction().PrimaryInputs
	if len(pis) < 2 {
		return nil
	}
	k := max(1, min(3, len(pis)-1))
	pins := make([]cnf.Lit, 0, k)
	for _, v := range pis[:k] {
		if model[v-1] {
			pins = append(pins, cnf.Lit(v))
		} else {
			pins = append(pins, cnf.Lit(-v))
		}
	}
	return pins
}

// RunAssume measures assumption specialization on the given instances:
// per instance, a cold compile is timed through a fresh compiler, pins are
// derived from a SAT model, and core.Specialize is timed over the already
// compiled artifact — the claim under test being that re-specialization is
// a small fraction of compilation. On instances whose conditioned formula
// the exact-count oracle accepts, the specialized sampler is then run to
// saturation and scored against the conditioned count (coverage and
// chi-square uniformity) — the conditioned analogue of the quality gate.
// Instances whose conditioned space exceeds the oracle's limits report
// timing only (QualityMeasured false); unsatisfiable instances are
// dropped.
func RunAssume(ctx context.Context, instances []*benchgen.Instance, opt RunOptions) []AssumeRow {
	opt = opt.withDefaults()
	var rows []AssumeRow
	for _, in := range instances {
		if ctx.Err() != nil {
			break
		}
		_, _, vars, clauses := in.Stats()
		row := AssumeRow{Instance: in.Name, Vars: vars, Clauses: clauses}

		// Cold compile through a throwaway compiler so the shared cache
		// cannot hide the cost being compared against.
		t0 := time.Now()
		base, err := sampling.CompileProblem(in.Formula)
		if err != nil {
			continue
		}
		row.ColdCompile = time.Since(t0)

		pins := assumePins(base.Core(), in.Formula)
		if len(pins) == 0 {
			continue
		}
		row.Pins = len(pins)

		t0 = time.Now()
		spec, err := core.Specialize(base.Core(), pins)
		if err != nil {
			continue
		}
		row.Specialize = time.Since(t0)
		if row.Specialize > 0 {
			row.Speedup = float64(row.ColdCompile) / float64(row.Specialize)
		}

		// Conditioned quality leg, where the oracle can count the space.
		exact, err := quality.ExactCountAssume(in.Formula, in.Formula.Projection, pins, quality.CountLimits{})
		if err == nil && exact > 0 {
			if s, err := spec.NewSampler(opt.qualityConfig()); err == nil {
				q := measureQuality(ctx, s, exact)
				row.QualityMeasured = true
				row.Exact, row.Distinct, row.Coverage = q.Exact, q.Distinct, q.Coverage
				row.ChiSquare, row.DoF, row.P = q.ChiSquare, q.DoF, q.P
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// QualityRow is one instance's sample-quality measurement against the
// exact BDD model count (see measureQuality for which checkpoint each
// field comes from).
type QualityRow struct {
	Instance string `json:"instance"`
	Vars     int    `json:"vars"`
	ProjVars int    `json:"proj_vars"` // 0 = full-assignment identity
	quality.Report
	SolPerSec float64 `json:"sol_per_sec"`
}

// RunQuality measures the GD sampler against the exact-count oracle on the
// given instances (benchgen.QualitySuite) — the -exp quality gate's data
// source. Instances whose space exceeds the oracle's limits are skipped;
// any other failure to count, compile or open a sampler is joined into the
// returned error while the sweep goes on.
func RunQuality(ctx context.Context, instances []*benchgen.Instance, opt RunOptions) ([]QualityRow, error) {
	opt = opt.withDefaults()
	var rows []QualityRow
	var errs []error
	for _, in := range instances {
		if ctx.Err() != nil {
			break
		}
		f := in.Formula
		exact, err := quality.ExactCount(f, f.Projection, quality.CountLimits{})
		if errors.Is(err, quality.ErrTooLarge) {
			continue
		}
		var s *core.Sampler
		if err == nil {
			var p *sampling.Problem
			if p, err = opt.Compiler.Compile(f); err == nil {
				s, err = p.Core().NewSampler(opt.qualityConfig())
			}
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", in.Name, err))
			continue
		}
		q := measureQuality(ctx, s, exact)
		rows = append(rows, QualityRow{
			Instance: in.Name, Vars: f.NumVars, ProjVars: len(f.Projection),
			Report: q, SolPerSec: s.Stats().Throughput(),
		})
	}
	return rows, errors.Join(errs...)
}

// qualityConfig is the sampler both quality legs score: a small batch and
// a fixed seed, so the measurement is deterministic.
func (o RunOptions) qualityConfig() core.Config {
	return core.Config{BatchSize: 64, Seed: o.Seed + 1, Device: o.Device}
}

// qualitySampleBudget is the uniformity checkpoint's budget in valid
// retires per exact model. Chi-square scales linearly in samples for fixed
// skew, so a bounded budget measures distributional shape, not the GD
// sampler's asymptotic bias.
const qualitySampleBudget = 6

// measureQuality scores s against an exact model count in two checkpoints
// of one session: uniformity (Samples, ChiSquare, DoF, P) once s has
// retired qualitySampleBudget valid candidates per model, then coverage
// (Distinct, Coverage) once it saturates. Stats().Retired is the
// continuous scheduler's valid-retire count — exactly the sum of the
// per-solution tallies — so the budget loop does not copy the tally slice
// every tick. SIGINT is honoured between ticks; the 30 s saturation cap is
// a backstop (the quality instances saturate in milliseconds).
func measureQuality(ctx context.Context, s *core.Sampler, exact float64) quality.Report {
	budget := qualitySampleBudget * int(exact)
	for s.Stats().Retired < budget && !s.Exhausted() && ctx.Err() == nil {
		s.ContinuousStep(0)
	}
	q := quality.Evaluate(s.SolutionHits(), exact)
	deadline := time.Now().Add(30 * time.Second)
	for !s.Exhausted() && ctx.Err() == nil && time.Now().Before(deadline) {
		s.ContinuousStep(0)
	}
	sat := quality.Evaluate(s.SolutionHits(), exact)
	q.Distinct, q.Coverage = sat.Distinct, sat.Coverage
	return q
}
