package bitblast_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/bitblast"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/extract"
	"repro/internal/sat"
)

// residualCorpus is the instance set the residual sweep is held to the
// full-CNF sweep on: the paper's Table II rows (the first table2), the
// small and quality suites, and the serve-cold and gd-hard benchmark
// shapes.
func residualCorpus() (ins []*benchgen.Instance, table2 int) {
	ins = benchgen.Table2Instances()
	table2 = len(ins)
	ins = append(ins, benchgen.SmallSuite()...)
	ins = append(ins, benchgen.QualitySuite()...)
	return append(ins,
		benchgen.Iscas("cold-0", 120, 1200, 4, 6001),
		benchgen.OrChain("or-400-80-4001", 400, 80, 4001)), table2
}

// randomSmallCNF draws a 2/3-CNF over n variables with n..3n clauses, the
// shape whose extraction exercises the transformation's fallback windows.
func randomSmallCNF(r *rand.Rand, n int) *cnf.Formula {
	f := cnf.New(n)
	for range n + r.Intn(2*n+1) {
		perm := r.Perm(n)[:2+r.Intn(2)]
		cl := make(cnf.Clause, len(perm))
		for i, v := range perm {
			cl[i] = cnf.Lit(v + 1)
			if r.Intn(2) == 0 {
				cl[i] = -cl[i]
			}
		}
		f.AddClause(cl...)
	}
	return f
}

// residualRows packs batch rows of circuit inputs for ext: a quarter are a
// model of f (when f has one), a quarter that model with one input
// flipped, and the rest random; the lanes past the batch are random too.
func residualRows(r *rand.Rand, f *cnf.Formula, ext *extract.Result, batch int) [][]uint64 {
	c := ext.Circuit
	words := (batch + 63) / 64
	cols := make([][]uint64, len(c.Inputs))
	for i := range cols {
		cols[i] = make([]uint64, words)
		for w := range cols[i] {
			cols[i][w] = r.Uint64()
		}
	}
	s := sat.NewSolver(f, sat.Options{Rand: r, RandomPolarity: true})
	if s.Solve() != sat.Sat {
		return cols
	}
	model := s.Model()
	varOf := make(map[int32]int, len(c.Inputs))
	for i, id := range ext.NodeOf {
		varOf[int32(id)] = i + 1
	}
	for lane := 0; lane < batch/2; lane++ {
		flip := -1
		if lane%2 == 1 {
			flip = r.Intn(len(c.Inputs))
		}
		for i, id := range c.Inputs {
			bit := uint64(1) << (uint(lane) & 63)
			cols[i][lane>>6] &^= bit
			if v, ok := varOf[int32(id)]; ok && model[v-1] != (i == flip) {
				cols[i][lane>>6] |= bit
			}
		}
	}
	return cols
}

// specialize turns the inputs pins fix into constants, as a specialized
// problem's circuit has them, and drops their columns.
func specialize(ext *extract.Result, pins []cnf.Lit, cols [][]uint64) (*circuit.Circuit, [][]uint64) {
	c := &circuit.Circuit{Nodes: slices.Clone(ext.Circuit.Nodes), Outputs: ext.Circuit.Outputs}
	for _, l := range pins {
		if id := ext.NodeOf[l.Var()-1]; c.Nodes[id].Type == circuit.Input {
			c.Nodes[id] = circuit.Node{Type: circuit.Const, Val: l.Positive(), Var: l.Var()}
		}
	}
	var kept [][]uint64
	for i, id := range ext.Circuit.Inputs {
		if c.Nodes[id].Type == circuit.Input {
			c.Inputs = append(c.Inputs, id)
			kept = append(kept, cols[i])
		}
	}
	return c, kept
}

// TestResidualSweepMatchesFullSweep is the proof's differential: on
// random rows of every corpus formula and of random small formulas
// (random 2/3-CNFs and Tseitin-encoded random circuits), without pins,
// with pins, and with pins over a circuit whose pinned inputs are
// constants, the residual sweep (New) must produce exactly the
// validity of the full-CNF sweep (NewFull) on every lane, tail lanes
// included. The rows mix models with near-models, so both verdicts occur.
func TestResidualSweepMatchesFullSweep(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	type item struct {
		name   string
		f      *cnf.Formula
		table2 bool
	}
	var items []item
	corpus, table2 := residualCorpus()
	for k, in := range corpus {
		items = append(items, item{in.Name, in.Formula, k < table2})
	}
	for k := 0; k < 60; k++ {
		items = append(items, item{fmt.Sprintf("random-%d", k), randomSmallCNF(r, 3+r.Intn(10)), false})
		c := randomCircuit(r, 3+r.Intn(6), 5+r.Intn(20))
		items = append(items, item{fmt.Sprintf("tseitin-%d", k), c.Tseitin().Formula, false})
	}
	validLanes, invalidLanes := 0, 0
	for _, it := range items {
		ext, err := extract.Transform(it.f)
		if err != nil {
			t.Fatal(err)
		}
		// Pins are a random literal set over distinct variables: they
		// resolve clauses away and add units, and may empty a clause.
		var pins []cnf.Lit
		for _, v := range r.Perm(it.f.NumVars)[:1+r.Intn(min(3, it.f.NumVars))] {
			l := cnf.Lit(v + 1)
			if r.Intn(2) == 0 {
				l = -l
			}
			pins = append(pins, l)
		}
		cols := residualRows(r, it.f, ext, 64+r.Intn(200))
		words := len(cols[0])
		spec, specCols := specialize(ext, pins, cols)
		for _, run := range []struct {
			c    *circuit.Circuit
			cols [][]uint64
			pins []cnf.Lit
		}{{ext.Circuit, cols, nil}, {ext.Circuit, cols, pins}, {spec, specCols, pins}} {
			ps, cols := run.pins, run.cols
			full := bitblast.NewFull(run.c, ext.NodeOf, it.f, ps)
			res := bitblast.New(run.c, ext.NodeOf, it.f, ps)
			if res.Clauses() > full.Clauses() {
				t.Fatalf("%s pins %v: residual plan has %d clauses, full plan %d", it.name, ps, res.Clauses(), full.Clauses())
			}
			// The compile cache prices the plan by its capacity, so it
			// holds exactly the residual clauses.
			if l, lc, st, sc := res.SlabCaps(); lc != l || sc != st {
				t.Fatalf("%s pins %v: plan slab holds %d of %d literals and %d of %d starts", it.name, ps, l, lc, st, sc)
			}
			// On the paper's Table II rows almost every clause is a gate
			// definition the circuit proves: at most one in fifty stays in
			// the sweep.
			if ps == nil && it.table2 {
				t.Logf("%s: %d clauses, %d residual", it.name, it.f.NumClauses(), res.Clauses())
				if res.Clauses()*50 > it.f.NumClauses() {
					t.Errorf("%s: %d of %d clauses residual", it.name, res.Clauses(), it.f.NumClauses())
				}
			}
			// The sweep evaluates only the residual clauses' cone.
			if ps == nil && (it.table2 || it.name == "cold-0") {
				t.Logf("%s: the sweep evaluates %d of %d nodes", it.name, res.NewEval(nil).ConeSize(), len(run.c.Nodes))
			}
			want, got := make([]uint64, words), make([]uint64, words)
			full.NewEval(nil).Sweep(cols, 0, words, nil, want, nil)
			res.NewEval(nil).Sweep(cols, 0, words, nil, got, nil)
			for w := range want {
				if got[w] != want[w] {
					t.Fatalf("%s pins %v word %d: residual sweep %x, full sweep %x", it.name, ps, w, got[w], want[w])
				}
				n := bits.OnesCount64(want[w])
				validLanes += n
				invalidLanes += 64 - n
			}
		}
	}
	if validLanes == 0 || invalidLanes == 0 {
		t.Fatalf("%d valid and %d invalid lanes: the differential checks one verdict only", validLanes, invalidLanes)
	}
}
