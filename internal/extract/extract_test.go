package extract

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/quality"
)

const paperExample = `c paper Fig. 1 CNF example
p cnf 14 21
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

func mustParse(t *testing.T, s string) *cnf.Formula {
	t.Helper()
	f, err := cnf.ParseDIMACSString(s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestTransformPaperExample(t *testing.T) {
	f := mustParse(t, paperExample)
	res, err := Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig. 1: 6 primary inputs (x1,x11,x12,x6,x13,x14 — or the
	// reversed orientations of the buffer chains, which are equally valid),
	// and one constrained output (x10 = 1).
	if got := len(res.Circuit.Inputs); got != 6 {
		t.Errorf("primary inputs = %d want 6", got)
	}
	if got := len(res.Circuit.Outputs); got != 1 {
		t.Errorf("outputs = %d want 1", got)
	}
	// Equisatisfiability: every primary-input assignment that satisfies the
	// circuit outputs must satisfy the CNF; the count of such assignments
	// must equal the CNF model count.
	checkBijection(t, f, res)
}

// checkBijection verifies |models(CNF)| == |{PI assignments driving outputs
// to targets}| and that each such PI assignment extends to a CNF model via
// circuit evaluation. Only usable for small input counts.
func checkBijection(t *testing.T, f *cnf.Formula, res *Result) {
	t.Helper()
	n := len(res.Circuit.Inputs)
	if n > 16 {
		t.Fatalf("checkBijection: too many inputs (%d)", n)
	}
	satisfying := 0
	for mask := 0; mask < 1<<n; mask++ {
		in := make([]bool, n)
		for i := range in {
			in[i] = mask&(1<<i) != 0
		}
		if !res.Circuit.OutputsSatisfied(in) {
			continue
		}
		satisfying++
		assign := res.AssignmentFromInputs(in)
		if !f.Sat(assign) {
			t.Fatalf("PI assignment %v drives outputs but extended assignment falsifies CNF (clause %d)",
				in, f.FirstUnsat(assign))
		}
	}
	want, err := quality.ExactCount(f, nil, quality.CountLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if float64(satisfying) != want {
		t.Fatalf("satisfying PI assignments = %d, CNF models = %g", satisfying, want)
	}
}

func TestTransformPaperMuxClauses(t *testing.T) {
	// Eq. (5) of the paper with variables renumbered (x4→x1, x107→x2,
	// x108→x3, x5→x4 — model counting needs a dense variable range), plus a
	// unit clause constraining the mux output so its window resolves.
	f := mustParse(t, `p cnf 4 5
-1 -2 4 0
-1 2 -4 0
1 -3 4 0
1 3 -4 0
4 0
`)
	res, err := Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intermediates) != 1 || res.Intermediates[0] != 4 {
		t.Errorf("intermediates = %v want [4]", res.Intermediates)
	}
	checkBijection(t, f, res)
}

func TestTransformInverterPair(t *testing.T) {
	f := mustParse(t, "p cnf 2 2\n-1 -2 0\n1 2 0\n")
	res, err := Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	// One of the two variables becomes an inverter of the other.
	if len(res.Intermediates) != 1 || len(res.PrimaryInputs) != 1 {
		t.Errorf("classification: PI=%v IV=%v", res.PrimaryInputs, res.Intermediates)
	}
	checkBijection(t, f, res)
}

func TestTransformUnitOnlyVariable(t *testing.T) {
	// A fresh variable constrained by a unit clause becomes a primary
	// output with a constant binding.
	f := mustParse(t, "p cnf 1 1\n1 0\n")
	res, err := Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PrimaryOutputs) != 1 || res.PrimaryOutputs[0] != 1 {
		t.Errorf("primary outputs = %v want [1]", res.PrimaryOutputs)
	}
	checkBijection(t, f, res)
}

func TestTransformUnderSpecifiedOr(t *testing.T) {
	// The paper's under-specified example: (x1 ∨ x2) alone — no output
	// variable derivable; an auxiliary output constrained to 1 is created.
	f := mustParse(t, "p cnf 2 1\n1 2 0\n")
	res, err := Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallbacks != 1 {
		t.Errorf("fallbacks = %d want 1", res.Fallbacks)
	}
	checkBijection(t, f, res)
}

func TestTransformDisjointWindowNotDropped(t *testing.T) {
	// (x3 ∨ x4) precedes an unrelated inverter pair; the constraint must
	// survive as an auxiliary output (this is the constraint-loss trap the
	// lookahead flush exists for).
	f := mustParse(t, "p cnf 4 3\n3 4 0\n-1 -2 0\n1 2 0\n")
	res, err := Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	checkBijection(t, f, res)
}

func TestTransformInterleavedSharedWindow(t *testing.T) {
	// An unrelated clause sharing the window with gate clauses (because its
	// variables also occur later) must not be discarded on gate resolution.
	f := mustParse(t, `p cnf 4 4
3 4 0
-1 -2 0
1 2 0
-3 -4 0
`)
	res, err := Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	checkBijection(t, f, res)
}

func TestTransformAndGate(t *testing.T) {
	// Tseitin AND: f=3, inputs 1,2 — then f constrained true.
	f := mustParse(t, `p cnf 3 4
3 -1 -2 0
-3 1 0
-3 2 0
3 0
`)
	res, err := Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	checkBijection(t, f, res)
}

func TestTransformXorSignature(t *testing.T) {
	// Eq. (4): 2-input XOR f = x1 ⊕ x2 (variable 3), output constrained 1.
	f := mustParse(t, `p cnf 3 5
-3 1 2 0
-3 -1 -2 0
3 -1 2 0
3 1 -2 0
3 0
`)
	res, err := Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	checkBijection(t, f, res)
}

func TestTransformEmptyClauseError(t *testing.T) {
	f := cnf.New(1)
	f.Clauses = append(f.Clauses, cnf.Clause{})
	if _, err := Transform(f); err == nil {
		t.Error("empty clause did not error")
	}
}

func TestTransformStatsPopulated(t *testing.T) {
	f := mustParse(t, paperExample)
	res, err := Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows == 0 {
		t.Error("no windows resolved")
	}
	if res.TransformTime <= 0 {
		t.Error("transform time not recorded")
	}
	if len(res.Bindings) == 0 {
		t.Error("no bindings recorded")
	}
}

// TestTransformRandomCircuitsRoundTrip is the main equisatisfiability
// property: random circuit → Tseitin CNF → Transform → the recovered
// function has exactly the same satisfying-input count as the CNF's model
// count, and every recovered solution verifies against the CNF.
func TestTransformRandomCircuitsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 40; trial++ {
		c := randomCircuit(r, 3+r.Intn(3), 4+r.Intn(8))
		enc := c.Tseitin()
		res, err := Transform(enc.Formula)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(res.Circuit.Inputs) > 14 {
			continue
		}
		checkBijection(t, enc.Formula, res)
	}
}

// TestTransformOpsReduction checks the Fig. 4 (middle) property: the
// recovered multi-level function has fewer 2-input gate equivalents than
// the CNF on gate-structured instances.
func TestTransformOpsReduction(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	c := randomCircuit(r, 8, 60)
	enc := c.Tseitin()
	res, err := Transform(enc.Formula)
	if err != nil {
		t.Fatal(err)
	}
	cnfOps := enc.Formula.OpCount2()
	cktOps := res.Circuit.OpCount2()
	if cktOps >= cnfOps {
		t.Errorf("no ops reduction: circuit %d >= CNF %d", cktOps, cnfOps)
	}
	t.Logf("ops reduction: %.2fx (CNF %d → circuit %d)", float64(cnfOps)/float64(cktOps), cnfOps, cktOps)
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
	// Constrain the last node to its value under a random input assignment,
	// guaranteeing satisfiability.
	in := make([]bool, inputs)
	for i := range in {
		in[i] = r.Intn(2) == 0
	}
	vals := c.Eval(in)
	last := circuit.NodeID(c.NumNodes() - 1)
	c.MarkOutput(last, vals[last])
	return c
}

func TestGateHistogram(t *testing.T) {
	f := mustParse(t, paperExample)
	res, err := Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	h := res.GateHistogram()
	total := 0
	for _, n := range h {
		total += n
	}
	if total != res.Circuit.NumNodes() {
		t.Errorf("histogram total %d != nodes %d", total, res.Circuit.NumNodes())
	}
	if h["INPUT"] != len(res.Circuit.Inputs) {
		t.Errorf("INPUT count %d != inputs %d", h["INPUT"], len(res.Circuit.Inputs))
	}
}
