package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/tensor"
)

// naiveSampler replicates the seed sampler's step/collect loop on the
// naive one-slot-per-op tape (program_test.go) with full-matrix traversals. It
// is the ground truth the fused engine is differentially tested against.
// The loss is accumulated row-major (the engine's tile order) so that the
// sequential-device comparison can be bit-exact.
type naiveSampler struct {
	cfg     Config
	formula *cnf.Formula
	s       *Sampler // for the shared extraction only
	prog    *program
	vmat    *tensor.Matrix
	vals    []float32
	grads   []float32
	hard    []bool
	loss    float64
	unique  map[string]struct{}
	sols    [][]bool
	round   int64
}

func newNaiveSampler(t *testing.T, f *cnf.Formula, cfg Config) *naiveSampler {
	t.Helper()
	s := newSampler(t, f, cfg)
	cfg = cfg.withDefaults()
	prog := compile(s.prob.ext.Circuit)
	n := len(prog.inputs)
	ns := &naiveSampler{
		cfg: cfg, formula: f, s: s, prog: prog,
		vmat:   tensor.NewMatrix(cfg.BatchSize, n),
		vals:   make([]float32, prog.numSlots*cfg.BatchSize),
		grads:  make([]float32, prog.numSlots*cfg.BatchSize),
		hard:   make([]bool, cfg.BatchSize*n),
		unique: map[string]struct{}{},
	}
	return ns
}

func (ns *naiveSampler) initRound() {
	seed := ns.cfg.Seed + 0x5DEECE66D*ns.round
	ns.round++
	ns.vmat.Randomize(tensor.Sequential(), seed, -ns.cfg.InitRange, ns.cfg.InitRange)
}

func (ns *naiveSampler) step() {
	batch := ns.cfg.BatchSize
	n := len(ns.prog.inputs)
	lr := ns.cfg.LearningRate
	for i := 0; i < n; i++ {
		col := ns.vals[int(ns.prog.inputs[i])*batch:]
		for r := 0; r < batch; r++ {
			col[r] = sigmoid32(ns.vmat.At(r, i))
		}
	}
	ns.prog.forward(ns.vals, batch, 0, batch)
	for i := range ns.grads {
		ns.grads[i] = 0
	}
	sum := 0.0
	for r := 0; r < batch; r++ {
		for _, o := range ns.prog.outputs {
			y := ns.vals[int(o.slot)*batch+r]
			diff := y - o.target
			sum += float64(diff) * float64(diff)
			ns.grads[int(o.slot)*batch+r] += 2 * diff
		}
	}
	ns.loss = sum
	ns.prog.backward(ns.vals, ns.grads, batch, 0, batch)
	for i := 0; i < n; i++ {
		sl := int(ns.prog.inputs[i])
		p := ns.vals[sl*batch:]
		g := ns.grads[sl*batch:]
		for r := 0; r < batch; r++ {
			dv := g[r] * p[r] * (1 - p[r])
			ns.vmat.Set(r, i, ns.vmat.At(r, i)-lr*dv)
		}
	}
}

func (ns *naiveSampler) collect() {
	batch := ns.cfg.BatchSize
	n := len(ns.prog.inputs)
	tensor.Harden(tensor.Sequential(), ns.hard, ns.vmat, 0)
	key := make([]byte, (n+7)/8)
	for r := 0; r < batch; r++ {
		row := ns.hard[r*n : (r+1)*n]
		for i := range key {
			key[i] = 0
		}
		for i, b := range row {
			if b {
				key[i/8] |= 1 << (i % 8)
			}
		}
		if _, dup := ns.unique[string(key)]; dup {
			continue
		}
		assign := ns.s.prob.ext.AssignmentFromInputs(row)
		if !ns.formula.Sat(assign) {
			continue
		}
		ns.unique[string(key)] = struct{}{}
		ns.sols = append(ns.sols, append([]bool(nil), row...))
	}
}

// runEngineForward evaluates the fused engine on explicit soft input
// values (rows × n, row-major), returning per-row per-output values and
// the row-major loss sum.
func runEngineForward(e *engine, soft [][]float32) ([][]float32, float64) {
	rows := len(soft)
	vals := make([]float32, e.numSlots*rows)
	for t := 0; t < rows; t++ {
		for i := 0; i < e.numInputs; i++ {
			vals[i*rows+t] = soft[t][i]
		}
	}
	e.forwardTile(vals, rows, rows)
	out := make([][]float32, rows)
	sum := 0.0
	for t := 0; t < rows; t++ {
		out[t] = make([]float32, len(e.outputs))
		for k, o := range e.outputs {
			y := vals[int(o.slot)*rows+t]
			out[t][k] = y
			diff := float64(y - o.target)
			sum += diff * diff
		}
	}
	return out, sum + e.constLoss*float64(rows)
}

// TestEngineForwardBitIdentical: the fused kernels must reproduce the
// naive tape's forward values and loss bit-for-bit — fusion is defined as
// executing the exact float sequence of the unfused composition.
func TestEngineForwardBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		c := randomCircuit(r, 3+r.Intn(4), 6+r.Intn(14))
		naive := compile(c)
		eng := compileEngine(c)
		rows := 8
		soft := make([][]float32, rows)
		nvals := make([]float32, naive.numSlots*rows)
		for t2 := 0; t2 < rows; t2++ {
			soft[t2] = make([]float32, len(c.Inputs))
			for i := range soft[t2] {
				v := r.Float32()
				soft[t2][i] = v
				nvals[int(naive.inputs[i])*rows+t2] = v
			}
		}
		naive.forward(nvals, rows, 0, rows)
		nloss := 0.0
		nout := make([][]float32, rows)
		for t2 := 0; t2 < rows; t2++ {
			nout[t2] = make([]float32, len(naive.outputs))
			for k, o := range naive.outputs {
				y := nvals[int(o.slot)*rows+t2]
				nout[t2][k] = y
				d := float64(y - o.target)
				nloss += d * d
			}
		}
		eout, eloss := runEngineForward(eng, soft)
		if len(eng.outputs) != len(naive.outputs) {
			// Constant outputs fold into constLoss; random circuits here
			// have no const nodes, so counts must agree.
			t.Fatalf("trial %d: output count %d vs %d", trial, len(eng.outputs), len(naive.outputs))
		}
		for t2 := 0; t2 < rows; t2++ {
			for k := range nout[t2] {
				if math.Float32bits(nout[t2][k]) != math.Float32bits(eout[t2][k]) {
					t.Fatalf("trial %d row %d output %d: naive %x engine %x", trial, t2, k,
						math.Float32bits(nout[t2][k]), math.Float32bits(eout[t2][k]))
				}
			}
		}
		if math.Float64bits(nloss) != math.Float64bits(eloss) {
			t.Fatalf("trial %d: loss %v vs %v", trial, nloss, eloss)
		}
	}
}

// TestEngineBoolSemantics: the engine evaluated at {0,1} must agree with
// the boolean circuit on every input combination.
func TestEngineBoolSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		c := randomCircuit(r, 4, 12)
		eng := compileEngine(c)
		for mask := 0; mask < 16; mask++ {
			soft := [][]float32{make([]float32, 4)}
			in := make([]bool, 4)
			for i := 0; i < 4; i++ {
				if mask&(1<<i) != 0 {
					soft[0][i] = 1
					in[i] = true
				}
			}
			want := c.OutputsSatisfied(in)
			_, loss := runEngineForward(eng, soft)
			if got := loss == 0; got != want {
				t.Fatalf("trial %d mask %d: engine loss %v, circuit %v", trial, mask, loss, want)
			}
		}
	}
}

// TestEngineGradFiniteDifference: the fused backward pass must agree with
// central finite differences of the fused forward pass.
func TestEngineGradFiniteDifference(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20; trial++ {
		c := randomCircuit(r, 3, 8)
		e := compileEngine(c)
		if len(e.outputs) == 0 {
			continue
		}
		n := e.numInputs
		x := make([]float32, n)
		for i := range x {
			x[i] = 0.2 + 0.6*r.Float32()
		}
		lossAt := func(x []float32) float64 {
			_, l := runEngineForward(e, [][]float32{x})
			return l
		}
		vals := make([]float32, e.numSlots)
		grads := make([]float32, e.numGregs)
		for i := 0; i < n; i++ {
			vals[i] = x[i]
		}
		e.forwardTile(vals, 1, 1)
		for _, o := range e.outputs {
			grads[o.greg] += 2 * (vals[o.slot] - o.target)
		}
		e.backwardTile(vals, grads, 1, 1)
		const h = 1e-3
		for i := 0; i < n; i++ {
			xp := append([]float32(nil), x...)
			xm := append([]float32(nil), x...)
			xp[i] += h
			xm[i] -= h
			numeric := (lossAt(xp) - lossAt(xm)) / (2 * h)
			analytic := float64(grads[i])
			if !e.liveIn[i] && analytic != 0 {
				t.Fatalf("trial %d: dead input %d has gradient %g", trial, i, analytic)
			}
			if math.Abs(numeric-analytic) > 1e-2*(1+math.Abs(numeric)) {
				t.Fatalf("trial %d input %d: analytic %g numeric %g", trial, i, analytic, numeric)
			}
		}
	}
}

// TestEngineTrajectoryMatchesNaive runs full sampler rounds on both
// engines from identical seeds. Gradient accumulation order differs under
// fusion (a folded inverter's adjoint flows to its source at each
// consumer's backward step instead of once at the inverter's), so V is
// compared with a tolerance; the discovered solution streams must match
// exactly, element by element, in discovery order — including the stats
// that prove dedup/verify semantics are unchanged.
func TestEngineTrajectoryMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	for trial := 0; trial < 10; trial++ {
		c := randomCircuit(r, 4+r.Intn(3), 8+r.Intn(10))
		enc := c.Tseitin()
		cfg := Config{BatchSize: 128, Seed: int64(trial + 1)}
		ns := newNaiveSampler(t, enc.Formula, cfg)
		s := ns.s
		for round := 0; round < 3; round++ {
			ns.initRound()
			s.initRound()
			for it := 0; it < s.cfg.Iterations; it++ {
				ns.step()
				s.stepActive()
				rel := math.Abs(ns.loss-s.stats.FinalLoss) / (1 + math.Abs(ns.loss))
				if rel > 1e-6 {
					t.Fatalf("trial %d round %d iter %d: loss %g vs %g", trial, round, it, ns.loss, s.stats.FinalLoss)
				}
			}
			for i := range ns.vmat.Data {
				d := math.Abs(float64(ns.vmat.Data[i] - s.vmat.Data[i]))
				if d > 1e-3*(1+math.Abs(float64(ns.vmat.Data[i]))) {
					t.Fatalf("trial %d round %d: V[%d] diverged: %g vs %g", trial, round, i, ns.vmat.Data[i], s.vmat.Data[i])
				}
			}
			ns.collect()
			s.collect()
			sols := s.Solutions()
			if len(ns.sols) != len(sols) {
				t.Fatalf("trial %d round %d: %d naive sols vs %d engine sols", trial, round, len(ns.sols), len(sols))
			}
			for k := range ns.sols {
				for i := range ns.sols[k] {
					if ns.sols[k][i] != sols[k][i] {
						t.Fatalf("trial %d round %d: solution %d differs", trial, round, k)
					}
				}
			}
		}
		if s.stats.Unique != len(ns.sols) {
			t.Fatalf("trial %d: unique accounting differs", trial)
		}
	}
}

// TestEngineShrinksWorkingSet: on an inverter-heavy chain the fused engine
// must need fewer value slots than the naive tape (NOT fusion + DCE) and
// far fewer adjoint registers than value slots (backward-liveness reuse).
func TestEngineShrinksWorkingSet(t *testing.T) {
	c := circuit.NewCircuit()
	n := 32
	ids := make([]circuit.NodeID, n)
	for i := range ids {
		ids[i] = c.AddInput("")
	}
	cur := ids[0]
	for i := 1; i < n; i++ {
		nt := c.AddGate(circuit.Not, cur)
		cur = c.AddGate(circuit.Nand, nt, ids[i])
	}
	c.MarkOutput(cur, true)
	naive := compile(c)
	eng := compileEngine(c)
	if eng.numSlots >= naive.numSlots {
		t.Errorf("fusion did not shrink slots: %d vs naive %d", eng.numSlots, naive.numSlots)
	}
	if eng.numGregs >= eng.numSlots {
		t.Errorf("adjoint registers (%d) not below value slots (%d)", eng.numGregs, eng.numSlots)
	}
	// A chain has live width O(1) beyond the inputs.
	if eng.numGregs > n+4 {
		t.Errorf("chain should need ~n adjoint registers, got %d", eng.numGregs)
	}
}

// TestStepZeroAllocs guards the fused pipeline: after warm-up a GD step
// over every tile performs no heap allocations on the sequential device.
func TestStepZeroAllocs(t *testing.T) {
	f := mustFormula(t, paperExample)
	s := newSampler(t, f, Config{BatchSize: 256, Seed: 7, Device: tensor.Sequential()})
	s.initRound()
	s.stepActive()
	allocs := testing.AllocsPerRun(50, func() { s.stepActive() })
	if allocs != 0 {
		t.Errorf("step allocates %.1f times per call, want 0", allocs)
	}
}

// TestCollectSteadyStateZeroAllocs: once the pool is saturated (no new
// uniques), collect — packing, bit-parallel verification, hashing, dedup —
// allocates nothing per call.
func TestCollectSteadyStateZeroAllocs(t *testing.T) {
	f := mustFormula(t, "p cnf 3 4\n-3 1 2 0\n3 -1 0\n3 -2 0\n3 0\n")
	s := newSampler(t, f, Config{BatchSize: 64, Seed: 4, Device: tensor.Sequential()})
	s.SampleUntil(10, 0) // exhausts the 3-solution space
	allocs := testing.AllocsPerRun(50, func() { s.collect() })
	if allocs != 0 {
		t.Errorf("steady-state collect allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkEngineStep isolates the fused execution engine: rounds of pure
// GD iterations (no harden/verify/dedup) on the bench instances of the
// root package's BenchmarkTable2, reported as row-iterations per second.
// allocs/op should read 0 — the fused pipeline runs entirely from
// preallocated per-worker scratch.
func BenchmarkEngineStep(b *testing.B) {
	for _, in := range []*benchgen.Instance{
		benchgen.OrChain("or-50-10-7-UC-10", 50, 4, 5010),
		benchgen.QChain("90-10-10-q", 15, 24, 9020),
		benchgen.Iscas("s15850a-mini", 300, 3000, 7, 15874),
		benchgen.Prod("Prod-mini", 150, 30, 8),
	} {
		b.Run(in.Name, func(b *testing.B) {
			const batch = 4096
			s, err := NewFromCNF(in.Formula, Config{BatchSize: batch, Iterations: 5, Device: tensor.Sequential()})
			if err != nil {
				b.Fatal(err)
			}
			s.Round() // warm up scratch and the solution pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.stepActive()
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
