package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/benchgen"
	"repro/internal/cnf"
	"repro/internal/sampling"
	"repro/internal/tensor"
)

// offlineSpec is an offline workload: instances streamed one after the
// other through sampling.Session.Stream, each stream stopping at exactly
// its target the way the server's sink does.
type offlineSpec struct {
	batch   int // GD batch of every stream
	gen     func() []*benchgen.Instance
	targets []int // stream target of each generated instance
	// check is the workload's self-check on the traced pass: it fails the
	// run when a generator change has stopped the workload from stressing
	// the layer it exists for.
	check func(r *report, p offlinePass, insts []*instance)
}

// table2 streams one representative per family of the paper's Fig. 4
// subset. Rows verify at GD iteration 0–2, so expanding and delivering
// dense assignments dominates and the GD step is nearly idle.
var table2 = offlineSpec{
	batch: 1024,
	gen: func() []*benchgen.Instance {
		insts := benchgen.Fig4Instances()
		// Prod-32's input width with 20 tree copies instead of 170: the
		// full instance spends about 8 s in extraction, which would swamp
		// every set-up.
		insts[3] = benchgen.Prod("Prod-32-c20", 1061, 20, 32)
		return insts
	},
	targets: []int{1000, 1000, 400, 200},
	check: func(r *report, p offlinePass, insts []*instance) {
		if ips := float64(p.counts.Iterations) / float64(p.counts.Delivered); ips >= 1 {
			r.fail("table2: %.3f GD iterations per delivered solution, want < 1", ips)
		}
		big := 0
		for i, in := range insts {
			if in.form.NumVars > insts[big].form.NumVars {
				big = i
			}
		}
		if share := float64(p.perInst[big].expand) / float64(p.perInst[big].wall); share < 0.5 {
			r.fail("table2: expansion is %.0f%% of stream time on %s, want >= 50%%", 100*share, insts[big].name)
		}
	},
}

// gdHard streams or-k chains with 80 constrained outputs to a target of
// two batches. Rows need several GD steps before they verify, so the GD
// step dominates and expansion is minor. The chains come from fixed
// generator seeds, so that runs with different workload seeds differ in
// their GD session seeds, not in instance hardness.
var gdHard = offlineSpec{
	batch: 256,
	gen: func() []*benchgen.Instance {
		var insts []*benchgen.Instance
		for genSeed := int64(4001); genSeed <= 4004; genSeed++ {
			insts = append(insts, benchgen.OrChain(fmt.Sprintf("or-400-80-%d", genSeed), 400, 80, genSeed))
		}
		return insts
	},
	targets: []int{500, 500, 500, 500},
	check: func(r *report, p offlinePass, _ []*instance) {
		if rpr := float64(p.spans.rowIters) / float64(p.counts.Retired); rpr < 2 {
			r.fail("gd-hard: %.2f GD row-iterations per retired row, want >= 2", rpr)
		}
		if p.spans.tick <= p.spans.expand {
			r.fail("gd-hard: GD ticks took %v, not more than expansion's %v", p.spans.tick, p.spans.expand)
		}
	},
}

// instance is one offline input: the DIMACS body the program parses, the
// formula parsed from it (the verification reference) and its compiled
// problem.
type instance struct {
	name   string
	body   string
	form   *cnf.Formula
	prob   *sampling.Problem
	target int
}

// setup generates every instance, parses its DIMACS body and compiles it.
func (o offlineSpec) setup() ([]*instance, error) {
	comp := sampling.NewCompiler(0)
	var out []*instance
	for i, gen := range o.gen() {
		body := gen.Formula.DIMACSString()
		f, err := cnf.ParseDIMACSString(body)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", gen.Name, err)
		}
		p, err := comp.Compile(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", gen.Name, err)
		}
		out = append(out, &instance{name: gen.Name, body: body, form: f, prob: p, target: o.targets[i]})
	}
	return out, nil
}

// coreCounts are the core sampler's exact counts, summed over streams.
type coreCounts struct {
	Ticks, Iterations, Candidates, Retired, Stalled, Delivered, Overshoot int
}

func (c *coreCounts) add(o coreCounts) {
	c.Ticks += o.Ticks
	c.Iterations += o.Iterations
	c.Candidates += o.Candidates
	c.Retired += o.Retired
	c.Stalled += o.Stalled
	c.Delivered += o.Delivered
	c.Overshoot += o.Overshoot
}

// streamSpans are the traced stream's layer spans, summed over streams.
type streamSpans struct {
	newSession, tick, expand time.Duration
	rowIters                 int // GD row-steps: active rows summed over GD iterations
}

func (s *streamSpans) add(o streamSpans) {
	s.newSession += o.newSession
	s.tick += o.tick
	s.expand += o.expand
	s.rowIters += o.rowIters
}

// streamOut is one stream: its op record, its solutions and its counts.
type streamOut struct {
	op
	found  [][]bool // delivered solutions, in delivery order
	counts coreCounts
	spans  streamSpans
}

// streamPlain runs one stream through Session.Stream, untraced.
func streamPlain(p *sampling.Problem, cfg sampling.SessionConfig, target int) (streamOut, error) {
	var out streamOut
	t0 := time.Now()
	sess, err := p.NewSession(cfg)
	if err != nil {
		return out, err
	}
	st, err := sess.Stream(context.Background(), target, func(sol []bool) error {
		if len(out.found) == 0 {
			out.ttfs = time.Since(t0)
		}
		out.found = append(out.found, sol)
		if len(out.found) >= target {
			return sampling.Stop
		}
		return nil
	})
	out.wall = time.Since(t0)
	out.counts = countsOf(sess, st.Calls, len(out.found))
	return out, err
}

// streamTraced runs the same stream as streamPlain, driving the session's
// core sampler tick by tick exactly as Session.Stream does, with a span
// around session creation, every ContinuousStep and every
// FullAssignmentAt.
func streamTraced(p *sampling.Problem, cfg sampling.SessionConfig, target int) (streamOut, error) {
	var out streamOut
	t0 := time.Now()
	sess, err := p.NewSession(cfg)
	out.spans.newSession = time.Since(t0)
	if err != nil {
		return out, err
	}
	c := sess.Core()
	ticks := 0
	for len(out.found) < target && !c.Exhausted() {
		iters := c.Stats().Iterations
		t := time.Now()
		c.ContinuousStep(target)
		out.spans.tick += time.Since(t)
		ticks++
		if c.Stats().Iterations > iters {
			out.spans.rowIters += c.ActiveRows()
		}
		for len(out.found) < min(c.UniqueCount(), target) {
			t = time.Now()
			sol := c.FullAssignmentAt(len(out.found))
			out.spans.expand += time.Since(t)
			if len(out.found) == 0 {
				out.ttfs = time.Since(t0)
			}
			out.found = append(out.found, sol)
		}
	}
	out.wall = time.Since(t0)
	out.counts = countsOf(sess, ticks, len(out.found))
	return out, nil
}

func countsOf(sess *sampling.Session, ticks, delivered int) coreCounts {
	cs := sess.Core().Stats()
	return coreCounts{
		Ticks: ticks, Iterations: cs.Iterations, Candidates: cs.Candidates,
		Retired: cs.Retired, Stalled: cs.Stalled, Delivered: delivered,
		Overshoot: sess.Core().UniqueCount() - delivered,
	}
}

// offlinePass is the outcome of streaming the instances round-robin.
type offlinePass struct {
	ops     []op
	busy    time.Duration // summed stream wall time
	cycles  []window
	t       tally
	counts  coreCounts
	spans   streamSpans
	perInst []instTimes
}

type instTimes struct{ wall, expand time.Duration }

// streamFunc runs one stream to its target.
type streamFunc func(p *sampling.Problem, cfg sampling.SessionConfig, target int) (streamOut, error)

// run streams every instance once per cycle, for `cycles` cycles, or —
// when cycles is 0 — until the first driver's summed stream time reaches
// budget. Whole cycles only, so every instance contributes the same
// number of streams. Every stream runs once with each driver, one right
// after the other, and each driver's streams make up its own pass. Each
// stream's solutions are verified after it ends, outside its timing.
func (o offlineSpec) run(insts []*instance, seed int64, cycles int, budget time.Duration, drivers ...streamFunc) []offlinePass {
	passes := make([]offlinePass, len(drivers))
	for k := range passes {
		passes[k].perInst = make([]instTimes, len(insts))
	}
	// One device worker: on a two-CPU host that leaves a CPU to the Go
	// runtime, which keeps stream latencies steady from run to run.
	dev := tensor.Sequential()
	for c := 0; (cycles > 0 && c < cycles) || (cycles == 0 && passes[0].busy < budget); c++ {
		windows := make([]window, len(drivers))
		for i, in := range insts {
			cfg := sampling.SessionConfig{BatchSize: o.batch, Seed: mix(seed, 2, c, i), Device: dev}
			for k, stream := range drivers {
				out, err := stream(in.prob, cfg, in.target)
				passes[k].record(i, in, out, err, &windows[k])
			}
		}
		for k := range passes {
			passes[k].cycles = append(passes[k].cycles, windows[k])
		}
	}
	return passes
}

// record adds stream out of instance i to the pass and to window w.
func (p *offlinePass) record(i int, in *instance, out streamOut, err error, w *window) {
	out.group, out.sols = i, len(out.found)
	out.ok = err == nil && out.sols == in.target && badSolutions(in.form, nil, nil, out.found) == 0
	p.t.attempted++
	if !out.ok {
		p.t.failed++
	}
	p.busy += out.wall
	w.span += out.wall
	if out.ok {
		w.ops++
		w.sols += float64(out.sols)
	}
	p.ops = append(p.ops, out.op)
	p.counts.add(out.counts)
	p.spans.add(out.spans)
	p.perInst[i].wall += out.wall
	p.perInst[i].expand += out.spans.expand
}

// offlineCycles is the fixed length of each traced-run pass: one cycle
// per measured second, and at least two. A count, not a time, so both
// passes and every run with the same seed do the same work.
func offlineCycles(seconds time.Duration) int {
	return max(2, int(seconds.Seconds()))
}

func offlineWorkload(o offlineSpec) workload {
	return workload{
		e2e: func(cfg runConfig, r *report) tally {
			insts, setup, err := repeatSetup(o.setup, func([]*instance) {})
			if err != nil {
				r.fail("setup: %v", err)
				return tally{attempted: 1, failed: 1}
			}
			p := o.run(insts, cfg.seed, 0, cfg.seconds, streamPlain)[0]
			setE2E(r, p.ops, len(insts), p.cycles, setup, p.t)
			return p.t
		},
		trace: o.trace,
	}
}

// trace streams every stream of a fixed number of cycles twice, untraced
// through Session.Stream and traced, each run right after the other, then
// replays the compile tier and the serving path over the same inputs.
// The untraced pass's stream time is what the traced pass's layer spans
// must explain.
func (o offlineSpec) trace(cfg runConfig, r *report) tally {
	var t tally
	insts, err := o.setup()
	if err != nil {
		r.fail("setup: %v", err)
		return tally{attempted: 1, failed: 1}
	}
	passes := o.run(insts, cfg.seed, offlineCycles(cfg.seconds), 0, streamPlain, streamTraced)
	plain, traced := passes[0], passes[1]
	t.add(plain.t)
	t.add(traced.t)

	if plain.counts != traced.counts {
		r.fail("exact counts differ between two passes of seed %d: %+v vs %+v", cfg.seed, plain.counts, traced.counts)
	}
	n := len(traced.ops)
	setCore(r, traced.counts, traced.spans, n)
	// The streams never touch the compiler: its only traffic is the
	// set-up's one compile per instance.
	setSampling(r, sampling.CompilerStats{Misses: int64(len(insts))}, n)
	r.note("sampling.misses", "set-up compiles")
	attribution(r, "stream", plain.busy, traced.spans.newSession+traced.spans.tick+traced.spans.expand)
	untracedRate := float64(plain.counts.Delivered) / plain.busy.Seconds()
	tracedRate := float64(traced.counts.Delivered) / traced.busy.Seconds()
	r.set("trace.overhead_pct", "%", 100*(untracedRate-tracedRate)/untracedRate)
	r.note("trace.overhead_pct", "sol_per_s untraced %.1f, traced %.1f", untracedRate, tracedRate)

	var bodies []replayBody
	for _, in := range insts {
		bodies = append(bodies, replayBody{body: in.body, form: in.form})
	}
	t.add(replayCompile(r, cfg, bodies))
	t.add(replayServe(r, cfg, insts))
	o.check(r, traced, insts)
	return t
}
