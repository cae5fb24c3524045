package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/extract"
	"repro/internal/tensor"
)

const paperExample = `p cnf 14 21
-1 -2 0
1 2 0
-2 3 0
2 -3 0
-3 4 0
3 -4 0
-4 -11 5 0
-4 11 -5 0
4 -12 5 0
4 12 -5 0
-6 7 0
6 -7 0
-7 8 0
7 -8 0
-8 -9 0
8 9 0
-9 -13 10 0
-9 13 -10 0
9 -14 10 0
9 14 -10 0
10 0
`

func mustFormula(t *testing.T, s string) *cnf.Formula {
	t.Helper()
	f, err := cnf.ParseDIMACSString(s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// NewFromCNF transforms f with extract.Transform and builds a sampler: the
// one-call form tests use for CompileCNF and then Problem.NewSampler.
func NewFromCNF(f *cnf.Formula, cfg Config) (*Sampler, error) {
	p, err := CompileCNF(f)
	if err != nil {
		return nil, err
	}
	return p.NewSampler(cfg)
}

func newSampler(t *testing.T, f *cnf.Formula, cfg Config) *Sampler {
	t.Helper()
	s, err := NewFromCNF(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCompileMatchesBoolSemantics(t *testing.T) {
	// Probabilistic kernels evaluated at {0,1} must agree with the boolean
	// circuit on every gate type and input combination.
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		c := randomCircuit(r, 4, 12)
		p := compile(c)
		batch := 16 // all 2^4 input combinations
		vals := make([]float32, p.numSlots*batch)
		for mask := 0; mask < 16; mask++ {
			for i, slot := range p.inputs {
				v := float32(0)
				if mask&(1<<i) != 0 {
					v = 1
				}
				vals[int(slot)*batch+mask] = v
			}
		}
		p.forward(vals, batch, 0, batch)
		for mask := 0; mask < 16; mask++ {
			in := []bool{mask&1 != 0, mask&2 != 0, mask&4 != 0, mask&8 != 0}
			want := c.OutputsSatisfied(in)
			got := true
			for _, o := range p.outputs {
				y := vals[int(o.slot)*batch+mask]
				if math.Abs(float64(y-o.target)) > 1e-5 {
					got = false
				}
			}
			if got != want {
				t.Fatalf("trial %d mask %d: program=%v circuit=%v", trial, mask, got, want)
			}
		}
	}
}

func TestGradientMatchesFiniteDifference(t *testing.T) {
	// Backward pass must agree with central finite differences of the
	// forward pass for random circuits and random interior points.
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		c := randomCircuit(r, 3, 8)
		p := compile(c)
		if len(p.outputs) == 0 {
			continue
		}
		batch := 1
		n := len(p.inputs)
		x := make([]float32, n)
		for i := range x {
			x[i] = 0.2 + 0.6*r.Float32()
		}
		lossAt := func(x []float32) float64 {
			vals := make([]float32, p.numSlots)
			for i, slot := range p.inputs {
				vals[slot] = x[i]
			}
			p.forward(vals, batch, 0, 1)
			sum := 0.0
			for _, o := range p.outputs {
				d := float64(vals[o.slot] - o.target)
				sum += d * d
			}
			return sum
		}
		// Analytic gradient.
		vals := make([]float32, p.numSlots)
		grads := make([]float32, p.numSlots)
		for i, slot := range p.inputs {
			vals[slot] = x[i]
		}
		p.forward(vals, batch, 0, 1)
		for _, o := range p.outputs {
			grads[o.slot] += 2 * (vals[o.slot] - o.target)
		}
		p.backward(vals, grads, batch, 0, 1)
		// Compare per input.
		const h = 1e-3
		for i, slot := range p.inputs {
			xp := append([]float32(nil), x...)
			xm := append([]float32(nil), x...)
			xp[i] += h
			xm[i] -= h
			numeric := (lossAt(xp) - lossAt(xm)) / (2 * h)
			analytic := float64(grads[slot])
			if math.Abs(numeric-analytic) > 1e-2*(1+math.Abs(numeric)) {
				t.Fatalf("trial %d input %d: analytic %g numeric %g", trial, i, analytic, numeric)
			}
		}
	}
}

func TestSamplerPaperExample(t *testing.T) {
	f := mustFormula(t, paperExample)
	s := newSampler(t, f, Config{BatchSize: 256, Seed: 1, Device: tensor.Sequential()})
	s.SampleUntil(30, 0)
	st := s.Stats()
	if st.Unique == 0 {
		t.Fatal("no solutions found on the paper example")
	}
	// Every solution must verify; FullAssignment must satisfy the CNF.
	for _, sol := range s.Solutions() {
		if !f.Sat(s.FullAssignment(sol)) {
			t.Fatalf("solution %v does not satisfy the CNF", sol)
		}
	}
	// The instance has 6 primary inputs and x10=1 cuts the space in half:
	// 32 satisfying PI assignments.
	if st.Unique > 32 {
		t.Errorf("found %d unique solutions, more than the space holds (32)", st.Unique)
	}
}

func TestSamplerFindsAllSolutionsSmall(t *testing.T) {
	// x3 = x1 AND x2 constrained to 1 leaves exactly one solution.
	f := mustFormula(t, "p cnf 3 4\n3 -1 -2 0\n-3 1 0\n-3 2 0\n3 0\n")
	s := newSampler(t, f, Config{BatchSize: 64, Seed: 3})
	s.SampleUntil(1, 0)
	if got := s.Stats().Unique; got != 1 {
		t.Fatalf("unique = %d want 1", got)
	}
	sol := s.Solutions()[0]
	for _, b := range sol {
		if !b {
			t.Fatalf("AND solution should be all-true inputs, got %v", sol)
		}
	}
}

func TestSamplerExhaustsSolutionSpace(t *testing.T) {
	// x3 = x1 OR x2 = 1: exactly 3 solutions over the two inputs.
	f := mustFormula(t, "p cnf 3 4\n-3 1 2 0\n3 -1 0\n3 -2 0\n3 0\n")
	s := newSampler(t, f, Config{BatchSize: 32, Seed: 4})
	st := s.SampleUntil(10, 0) // ask for more than exist
	if st.Unique != 3 {
		t.Fatalf("unique = %d want 3", st.Unique)
	}
}

func TestSamplerDeterministicForSeed(t *testing.T) {
	f := mustFormula(t, paperExample)
	run := func(dev tensor.Device) []int {
		s := newSampler(t, f, Config{BatchSize: 128, Seed: 11, Device: dev})
		s.Round()
		var sig []int
		for _, sol := range s.Solutions() {
			k := 0
			for i, b := range sol {
				if b {
					k |= 1 << i
				}
			}
			sig = append(sig, k)
		}
		return sig
	}
	a := run(tensor.Sequential())
	b := run(tensor.ParallelN(4))
	if len(a) != len(b) {
		t.Fatalf("sequential found %d, parallel found %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("solution streams differ across devices")
		}
	}
}

func TestSamplerUnconstrainedInputsAreDiverse(t *testing.T) {
	// The paper's Fig. 1 instance: inputs x1,x11,x12 feed only unconstrained
	// paths. Solutions must cover both values of those bits.
	f := mustFormula(t, paperExample)
	s := newSampler(t, f, Config{BatchSize: 512, Seed: 5})
	s.SampleUntil(16, 0)
	if s.Stats().Unique < 4 {
		t.Fatalf("too few solutions: %d", s.Stats().Unique)
	}
	freeIdx := s.Extraction().Circuit.FreeInputs()
	if len(freeIdx) == 0 {
		t.Fatal("expected free inputs in the paper example")
	}
	seenTrue, seenFalse := false, false
	for _, sol := range s.Solutions() {
		if sol[freeIdx[0]] {
			seenTrue = true
		} else {
			seenFalse = true
		}
	}
	if !seenTrue || !seenFalse {
		t.Error("free input never varied across solutions")
	}
}

func TestRoundTraceMonotone(t *testing.T) {
	f := mustFormula(t, paperExample)
	s := newSampler(t, f, Config{BatchSize: 256, Seed: 9, Iterations: 8})
	curve := s.RoundTrace()
	if len(curve) != 9 {
		t.Fatalf("curve length = %d want 9", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatalf("unique-solution curve decreased: %v", curve)
		}
	}
	if curve[len(curve)-1] == 0 {
		t.Error("no solutions after a full traced round")
	}
}

func TestStatsAccounting(t *testing.T) {
	f := mustFormula(t, paperExample)
	s := newSampler(t, f, Config{BatchSize: 64, Seed: 2, Iterations: 5})
	s.Round()
	st := s.Stats()
	if st.Rounds != 1 || st.Iterations != 5 {
		t.Errorf("rounds=%d iters=%d want 1, 5", st.Rounds, st.Iterations)
	}
	if st.Candidates != 64 {
		t.Errorf("candidates = %d want 64", st.Candidates)
	}
	if st.Unique != len(s.Solutions()) {
		t.Error("Unique and Solutions() disagree")
	}
	if st.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
	if st.Throughput() <= 0 && st.Unique > 0 {
		t.Error("throughput not positive")
	}
}

func TestMemoryEstimateAffineInBatch(t *testing.T) {
	// The tiled engine's scratch is a fixed per-worker cost; only V, the
	// packed hardened columns, and the validity masks scale with batch.
	// The model must therefore be affine with a positive slope: equal
	// batch increments add equal bytes.
	p, err := CompileCNF(mustFormula(t, paperExample))
	if err != nil {
		t.Fatal(err)
	}
	m1 := p.MemoryEstimate(Shape{Workers: 1, Batch: 1024})
	m2 := p.MemoryEstimate(Shape{Workers: 1, Batch: 2048})
	m3 := p.MemoryEstimate(Shape{Workers: 1, Batch: 3072})
	if m2-m1 != m3-m2 {
		t.Errorf("memory model not affine in batch: %d %d %d", m1, m2, m3)
	}
	if m2 <= m1 {
		t.Errorf("memory model slope not positive: %d vs %d", m1, m2)
	}
	if m1 <= 0 {
		t.Error("memory estimate not positive")
	}
}

func TestBatchForBudgetRoundTrips(t *testing.T) {
	p, err := CompileCNF(mustFormula(t, paperExample))
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(1 << 20)
	b := p.BatchForBudget(1, budget)
	if b < 1 {
		t.Fatalf("batch = %d", b)
	}
	if got := p.MemoryEstimate(Shape{Workers: 1, Batch: b}); got > budget+budget/64 {
		t.Errorf("estimate %d exceeds budget %d at batch %d", got, budget, b)
	}
	// Doubling the budget should (roughly) double the affordable batch.
	b2 := p.BatchForBudget(1, 2*budget)
	if b2 <= b {
		t.Errorf("larger budget did not increase batch: %d vs %d", b, b2)
	}
}

func TestNewErrors(t *testing.T) {
	// A formula whose circuit has no primary inputs (single unit clause).
	f := mustFormula(t, "p cnf 1 1\n1 0\n")
	ext, err := extract.Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	// Variable 1 becomes a PO input node, so inputs exist; instead check a
	// fully-empty formula which yields no nodes at all.
	_ = ext
	empty := cnf.New(0)
	ext2, err := extract.Transform(empty)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(empty, ext2, Config{}); err == nil {
		t.Error("expected error for inputless circuit")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.BatchSize != 1024 || c.Iterations != 5 || c.LearningRate != 10 || c.InitRange != 2 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if c.Device.Workers() != 1 {
		t.Error("default device should be sequential")
	}
}

// TestSamplerOnRandomTseitinInstances is the core integration property:
// random circuit → CNF → transform → sample → every reported solution
// satisfies the CNF, and solutions are distinct.
func TestSamplerOnRandomTseitinInstances(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		c := randomCircuit(r, 4+r.Intn(3), 8+r.Intn(10))
		enc := c.Tseitin()
		s, err := NewFromCNF(enc.Formula, Config{BatchSize: 128, Seed: int64(trial)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		s.SampleUntil(20, 0)
		seen := map[string]bool{}
		for _, sol := range s.Solutions() {
			full := s.FullAssignment(sol)
			if !enc.Formula.Sat(full) {
				t.Fatalf("trial %d: invalid solution", trial)
			}
			k := fmtBits(sol)
			if seen[k] {
				t.Fatalf("trial %d: duplicate solution", trial)
			}
			seen[k] = true
		}
		if s.Stats().Unique == 0 {
			t.Fatalf("trial %d: sampler found nothing (instance is satisfiable by construction)", trial)
		}
	}
}

func fmtBits(b []bool) string {
	out := make([]byte, len(b))
	for i, v := range b {
		if v {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}

func randomCircuit(r *rand.Rand, inputs, gates int) *circuit.Circuit {
	c := circuit.NewCircuit()
	for i := 0; i < inputs; i++ {
		c.AddInput("")
	}
	types := []circuit.GateType{circuit.And, circuit.Or, circuit.Nand, circuit.Nor, circuit.Xor, circuit.Not}
	for g := 0; g < gates; g++ {
		ty := types[r.Intn(len(types))]
		pick := func() circuit.NodeID { return circuit.NodeID(r.Intn(c.NumNodes())) }
		switch ty {
		case circuit.Not:
			c.AddGate(ty, pick())
		default:
			a, b := pick(), pick()
			if a == b {
				continue
			}
			c.AddGate(ty, a, b)
		}
	}
	in := make([]bool, inputs)
	for i := range in {
		in[i] = r.Intn(2) == 0
	}
	vals := c.Eval(in)
	last := circuit.NodeID(c.NumNodes() - 1)
	c.MarkOutput(last, vals[last])
	return c
}

func TestSolutionsReturnsCopies(t *testing.T) {
	// Mutating rows returned by Solutions must not corrupt the dedup pool:
	// the sampler owns its pool, callers own what they are handed.
	f := mustFormula(t, "p cnf 3 4\n-3 1 2 0\n3 -1 0\n3 -2 0\n3 0\n")
	s := newSampler(t, f, Config{BatchSize: 32, Seed: 4})
	s.SampleUntil(10, 0)
	first := s.Solutions()
	for _, row := range first {
		for i := range row {
			row[i] = !row[i]
		}
	}
	second := s.Solutions()
	seen := map[string]bool{}
	for _, row := range second {
		if !f.Sat(s.FullAssignment(row)) {
			t.Fatal("pool row invalid after caller mutation")
		}
		key := fmtBits(row)
		if seen[key] {
			t.Fatal("pool rows no longer distinct after caller mutation")
		}
		seen[key] = true
	}
}

func TestSolutionsFromIncremental(t *testing.T) {
	f := mustFormula(t, "p cnf 3 4\n-3 1 2 0\n3 -1 0\n3 -2 0\n3 0\n")
	s := newSampler(t, f, Config{BatchSize: 32, Seed: 4})
	s.SampleUntil(10, 0)
	n := s.UniqueCount()
	if n != 3 {
		t.Fatalf("unique = %d want 3", n)
	}
	all := s.Solutions()
	tail := s.SolutionsFrom(1)
	if len(tail) != n-1 {
		t.Fatalf("SolutionsFrom(1) = %d rows want %d", len(tail), n-1)
	}
	for i, row := range tail {
		if fmtBits(row) != fmtBits(all[i+1]) {
			t.Fatalf("SolutionsFrom misaligned at %d", i)
		}
	}
	if got := s.SolutionsFrom(n); got != nil {
		t.Errorf("SolutionsFrom(end) = %v want nil", got)
	}
}

func TestProblemSharedAcrossSamplers(t *testing.T) {
	// Two samplers over one compiled Problem are independent sessions:
	// same seed, same stream; the shared artifact is never mutated.
	f := mustFormula(t, "p cnf 3 4\n-3 1 2 0\n3 -1 0\n3 -2 0\n3 0\n")
	p, err := CompileCNF(f)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.NewSampler(Config{BatchSize: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.NewSampler(Config{BatchSize: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	a.SampleUntil(10, 0)
	b.SampleUntil(10, 0)
	as, bs := a.Solutions(), b.Solutions()
	if len(as) != len(bs) {
		t.Fatalf("sessions diverged: %d vs %d", len(as), len(bs))
	}
	for i := range as {
		if fmtBits(as[i]) != fmtBits(bs[i]) {
			t.Fatalf("row %d differs between sessions over one problem", i)
		}
	}
	if a.Problem() != b.Problem() {
		t.Error("sessions do not report the shared problem")
	}
}
