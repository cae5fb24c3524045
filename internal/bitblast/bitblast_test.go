package bitblast_test

import (
	"math/rand"
	"testing"

	"repro/internal/bitblast"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/extract"
)

func randomCircuit(r *rand.Rand, inputs, gates int) *circuit.Circuit {
	c := circuit.NewCircuit()
	for i := 0; i < inputs; i++ {
		c.AddInput("")
	}
	types := []circuit.GateType{circuit.And, circuit.Or, circuit.Nand, circuit.Nor, circuit.Xor, circuit.Xnor, circuit.Not}
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

// packInputs packs random candidate rows into per-input columns and also
// returns them row-major for the oracle.
func packInputs(r *rand.Rand, n, batch int) (cols [][]uint64, rows [][]bool) {
	words := (batch + 63) / 64
	cols = make([][]uint64, n)
	for i := range cols {
		cols[i] = make([]uint64, words)
	}
	rows = make([][]bool, batch)
	for b := range rows {
		rows[b] = make([]bool, n)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				rows[b][i] = true
				cols[i][b>>6] |= 1 << (uint(b) & 63)
			}
		}
	}
	return cols, rows
}

// sweepCase is one way of calling Eval.Sweep. The differentials below run
// every case against the per-row oracle, so each form of the sweep —
// full, masked, split across workers, partial range, with or without a
// projection plan, over a satisfiable or an unsat program — is checked
// by the same code.
type sweepCase struct {
	name    string
	mask    string // "" sweeps every word (nil mask); "random" or "all" dirty words
	ranges  string // "" one Eval over [0, words); "split" two Evals at a cut; "tail" only [cut, words)
	project bool   // pass a projection plan
	unsat   bool   // sweep a program whose pins empty a clause
}

// sweepFixture is one random problem, run through the paper's
// transformation with packed random rows: a Tseitin-encoded circuit plus
// one variable no clause mentions, which extraction gives a free input
// (so there is always at least one input).
type sweepFixture struct {
	f     *cnf.Formula
	ext   *extract.Result
	vars  []int // projection variables (a random subset plus the free one)
	plan  []int32
	cols  [][]uint64
	words int
	// The oracle's answer for every lane of every word: validity, and one
	// projection column per projection variable.
	valid     []uint64
	projWords [][]uint64
}

func newSweepFixture(t testing.TB, r *rand.Rand) *sweepFixture {
	t.Helper()
	c := randomCircuit(r, 3+r.Intn(6), 5+r.Intn(20))
	enc := c.Tseitin()
	nv := enc.Formula.NumVars + 1
	f := &cnf.Formula{NumVars: nv, Clauses: enc.Formula.Clauses}
	ext, err := extract.Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	x := &sweepFixture{f: f, ext: ext}
	for v := 1; v < nv; v++ {
		if r.Intn(3) == 0 {
			x.vars = append(x.vars, v)
		}
	}
	x.vars = append(x.vars, nv)
	x.plan = ext.ProjectionNodes(x.vars)
	// At least two words, a ragged tail: covers tail lanes, word cuts
	// and partial sweep groups.
	batch := 65 + r.Intn(640)
	var rows [][]bool
	x.cols, rows = packInputs(r, len(ext.Circuit.Inputs), batch)
	x.words = (batch + 63) / 64
	x.valid = make([]uint64, x.words)
	x.projWords = make([][]uint64, len(x.vars))
	for k := range x.projWords {
		x.projWords[k] = make([]uint64, x.words)
	}
	// Lanes past the batch are all-false rows; the oracle checks them too.
	for b := 0; b < 64*x.words; b++ {
		row := make([]bool, len(ext.Circuit.Inputs))
		if b < batch {
			row = rows[b]
		}
		assign := ext.AssignmentFromInputs(row)
		bit := uint64(1) << (uint(b) & 63)
		if f.Sat(assign) {
			x.valid[b>>6] |= bit
		}
		for k, v := range x.vars {
			if assign[v-1] {
				x.projWords[k][b>>6] |= bit
			}
		}
	}
	return x
}

// program compiles the fixture's verifier; under unsat, a unit clause on
// x1 with the pin ¬x1 empties a clause at compile time.
func (x *sweepFixture) program(unsat bool) *bitblast.Program {
	if !unsat {
		return bitblast.New(x.ext.Circuit, x.ext.NodeOf, x.f, nil)
	}
	f := &cnf.Formula{NumVars: x.f.NumVars, Clauses: append([]cnf.Clause{{1}}, x.f.Clauses...)}
	return bitblast.New(x.ext.Circuit, x.ext.NodeOf, f, []cnf.Lit{-1})
}

// run sweeps the fixture as c says into valid and proj (proj ignored
// without a plan) and returns which words the call was asked to sweep.
func (x *sweepFixture) run(r *rand.Rand, c sweepCase, valid []uint64, proj [][]uint64) []bool {
	prog := x.program(c.unsat)
	var mask []uint64
	switch c.mask {
	case "random":
		mask = make([]uint64, x.words)
		for w := range mask {
			if r.Intn(2) == 0 {
				mask[w] = 1 << uint(r.Intn(64)) // any dirty lane marks the word
			}
		}
	case "all":
		mask = make([]uint64, x.words)
		for w := range mask {
			mask[w] = ^uint64(0)
		}
	}
	var plan []int32
	if c.project {
		plan = x.plan
	}
	cut := 1 + r.Intn(x.words-1)
	switch c.ranges {
	case "split": // two workers, each with its own Eval
		prog.NewEval(plan).Sweep(x.cols, 0, cut, mask, valid, proj)
		prog.NewEval(plan).Sweep(x.cols, cut, x.words, mask, valid, proj)
	case "tail": // dirty words before the cut are out of range
		prog.NewEval(plan).Sweep(x.cols, cut, x.words, mask, valid, proj)
	default:
		prog.NewEval(plan).Sweep(x.cols, 0, x.words, mask, valid, proj)
	}
	swept := make([]bool, x.words)
	for w := range swept {
		swept[w] = (mask == nil || mask[w] != 0) && (c.ranges != "tail" || w >= cut)
	}
	return swept
}

// checkSweep runs each case over trials random fixtures: every swept word
// must equal the oracle (zero for an unsat program), and every other
// word — valid and projection alike — must keep the stale value it held.
func checkSweep(t *testing.T, seed int64, trials int, cases ...sweepCase) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		x := newSweepFixture(t, r)
		for _, c := range cases {
			stale := func() []uint64 {
				s := make([]uint64, x.words)
				for w := range s {
					s[w] = r.Uint64()
				}
				return s
			}
			valid, proj := stale(), make([][]uint64, len(x.vars))
			for k := range proj {
				proj[k] = stale()
			}
			wantValid := append([]uint64(nil), valid...)
			wantProj := make([][]uint64, len(proj))
			for k := range proj {
				wantProj[k] = append([]uint64(nil), proj[k]...)
			}
			swept := x.run(r, c, valid, proj)
			for w, s := range swept {
				if !s {
					continue
				}
				wantValid[w] = 0
				if !c.unsat {
					wantValid[w] = x.valid[w]
				}
				if c.project {
					for k := range wantProj {
						wantProj[k][w] = 0
						if !c.unsat {
							wantProj[k][w] = x.projWords[k][w]
						}
					}
				}
			}
			for w := range valid {
				if valid[w] != wantValid[w] {
					t.Fatalf("%s trial %d word %d (swept %t): valid %x, want %x", c.name, trial, w, swept[w], valid[w], wantValid[w])
				}
				for k := range proj {
					if proj[k][w] != wantProj[k][w] {
						t.Fatalf("%s trial %d word %d var %d (swept %t): projection %x, want %x",
							c.name, trial, w, x.vars[k], swept[w], proj[k][w], wantProj[k][w])
					}
				}
			}
		}
	}
}

// checkSweepAllocs: every case's sweep runs without allocating — it runs
// inside the scheduler's steady-state tick.
func checkSweepAllocs(t *testing.T, seed int64, cases ...sweepCase) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	x := newSweepFixture(t, r)
	mask := make([]uint64, x.words)
	for w := range mask {
		mask[w] = uint64(w % 3) // a mix of clean and dirty words
	}
	valid := make([]uint64, x.words)
	proj := make([][]uint64, len(x.vars))
	for k := range proj {
		proj[k] = make([]uint64, x.words)
	}
	for _, c := range cases {
		var plan []int32
		if c.project {
			plan = x.plan
		}
		ev := x.program(c.unsat).NewEval(plan)
		var m []uint64
		if c.mask != "" {
			m = mask
		}
		lo := 0
		if c.ranges != "" {
			lo = 1
		}
		if allocs := testing.AllocsPerRun(100, func() {
			ev.Sweep(x.cols, lo, x.words, m, valid, proj)
		}); allocs != 0 {
			t.Errorf("%s: Sweep allocates %.1f times per call, want 0", c.name, allocs)
		}
	}
}

// TestVerifyMatchesOracle is the verifier's core differential property:
// on random Tseitin-encoded circuits run through the paper's
// transformation, the full packed word sweep must agree with the per-row
// oracle (AssignmentFromInputs + Formula.Sat) on every lane, tail lanes
// included; a program whose pins empty a clause accepts no lane.
func TestVerifyMatchesOracle(t *testing.T) {
	checkSweep(t, 7, 25,
		sweepCase{name: "full"},
		sweepCase{name: "full-unsat", unsat: true})
}

// TestVerifyMaskedMatchesVerify: the masked incremental sweep must agree
// with the full sweep on every dirty word and must not touch the cached
// validity of clean words — the contract the continuous-batch scheduler's
// per-iteration verification relies on. An all-dirty mask is the full
// sweep.
func TestVerifyMaskedMatchesVerify(t *testing.T) {
	checkSweep(t, 19, 20,
		sweepCase{name: "masked", mask: "random"},
		sweepCase{name: "all-dirty", mask: "all"},
		sweepCase{name: "masked-unsat", mask: "random", unsat: true})
}

// TestVerifyProjectMatchesOracle: the packed projected signatures must
// agree lane by lane (tail lanes included) with projecting the per-row
// oracle's full assignment, over every variable class (PI, intermediate,
// PO, and a variable no clause mentions); a plan leaves validity as it is
// without one; a masked sweep keeps stale projection bits in clean words;
// an unsat program zeroes the swept projection words.
func TestVerifyProjectMatchesOracle(t *testing.T) {
	checkSweep(t, 23, 25,
		sweepCase{name: "project", project: true},
		sweepCase{name: "masked-project", mask: "random", project: true},
		sweepCase{name: "project-unsat", project: true, unsat: true},
		sweepCase{name: "masked-project-unsat", mask: "random", project: true, unsat: true})
}

// TestSweepReadsOnlyItsCone: a sweep evaluates only the cone of the
// residual clauses and of its Eval's projection plan. Every node outside
// that order is poisoned before the sweep; validity and projection words
// must still equal the oracle's, and the poison must stay intact. The
// order must be closed under fanin, and the fixture's free variable (no
// clause names it) must put a projected Eval on its own order.
func TestSweepReadsOnlyItsCone(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	const poison = 0xDEADBEEFCAFEF00D
	for trial := 0; trial < 25; trial++ {
		x := newSweepFixture(t, r)
		c := x.ext.Circuit
		for _, plan := range [][]int32{nil, x.plan} {
			ev := x.program(false).NewEval(plan)
			if ev.SharesOrder() != (plan == nil) {
				t.Fatalf("trial %d plan %v: shares the program's order %t", trial, plan, ev.SharesOrder())
			}
			var outside []circuit.NodeID
			for id := range c.Nodes {
				nid := circuit.NodeID(id)
				if !ev.InCone(nid) {
					outside = append(outside, nid)
					for j := range ev.NodeVals(nid) {
						ev.NodeVals(nid)[j] = poison
					}
					continue
				}
				for _, f := range c.Nodes[id].Fanin {
					if !ev.InCone(f) {
						t.Fatalf("trial %d: cone node %d has fanin %d outside the cone", trial, id, f)
					}
				}
			}
			for _, nd := range plan {
				if !ev.InCone(circuit.NodeID(nd)) {
					t.Fatalf("trial %d: projection node %d outside the cone", trial, nd)
				}
			}
			valid, proj := make([]uint64, x.words), make([][]uint64, len(plan))
			for k := range proj {
				proj[k] = make([]uint64, x.words)
			}
			ev.Sweep(x.cols, 0, x.words, nil, valid, proj)
			for w := range valid {
				if valid[w] != x.valid[w] {
					t.Fatalf("trial %d word %d: valid %x, want %x", trial, w, valid[w], x.valid[w])
				}
				for k := range proj {
					if proj[k][w] != x.projWords[k][w] {
						t.Fatalf("trial %d word %d var %d: projection %x, want %x", trial, w, x.vars[k], proj[k][w], x.projWords[k][w])
					}
				}
			}
			for _, id := range outside {
				for _, v := range ev.NodeVals(id) {
					if v != poison {
						t.Fatalf("trial %d: node %d outside the cone was written", trial, id)
					}
				}
			}
		}
	}
}

// TestVerifyProjectZeroAllocs: the projected sweeps must not allocate.
func TestVerifyProjectZeroAllocs(t *testing.T) {
	checkSweepAllocs(t, 37,
		sweepCase{name: "project", project: true},
		sweepCase{name: "masked-project", mask: "random", project: true},
		sweepCase{name: "project-unsat", project: true, unsat: true})
}

// TestVerifyMaskedZeroAllocs: the incremental sweep must not allocate.
func TestVerifyMaskedZeroAllocs(t *testing.T) {
	checkSweepAllocs(t, 31,
		sweepCase{name: "masked", mask: "random"},
		sweepCase{name: "masked-unsat", mask: "random", unsat: true})
}

// TestVerifyZeroAllocs: the full word sweep must not allocate.
func TestVerifyZeroAllocs(t *testing.T) {
	checkSweepAllocs(t, 13,
		sweepCase{name: "full"},
		sweepCase{name: "full-unsat", unsat: true})
}

// BenchmarkVerify compares the packed 64-lane sweep against the per-row
// oracle on the same workload; the sol/row metrics make the ratio visible
// in benchstat output.
func BenchmarkVerify(b *testing.B) {
	r := rand.New(rand.NewSource(17))
	c := randomCircuit(r, 16, 200)
	enc := c.Tseitin()
	ext, err := extract.Transform(enc.Formula)
	if err != nil {
		b.Fatal(err)
	}
	n := len(ext.Circuit.Inputs)
	batch := 4096
	cols, rows := packInputs(r, n, batch)
	words := batch / 64
	valid := make([]uint64, words)
	b.Run("packed64", func(b *testing.B) {
		ev := bitblast.New(ext.Circuit, ext.NodeOf, enc.Formula, nil).NewEval(nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.Sweep(cols, 0, words, nil, valid, nil)
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, row := range rows {
				assign := ext.AssignmentFromInputs(row)
				if enc.Formula.Sat(assign) {
					valid[0] |= 1
				}
			}
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}
