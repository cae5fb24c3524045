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

// TestVerifyMatchesOracle is the verifier's core differential property:
// on random Tseitin-encoded circuits run through the paper's
// transformation, the packed word sweep must agree with the per-row
// oracle (AssignmentFromInputs + Formula.Sat) on every lane.
func TestVerifyMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		c := randomCircuit(r, 3+r.Intn(5), 5+r.Intn(15))
		enc := c.Tseitin()
		ext, err := extract.Transform(enc.Formula)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		n := len(ext.Circuit.Inputs)
		if n == 0 {
			continue
		}
		batch := 70 // deliberately not a multiple of 64: exercises tail lanes
		cols, rows := packInputs(r, n, batch)
		words := (batch + 63) / 64
		valid := make([]uint64, words)
		ev := ext.Verifier(enc.Formula).NewEval()
		ev.Verify(cols, words, valid)
		for b := 0; b < batch; b++ {
			got := valid[b>>6]>>(uint(b)&63)&1 == 1
			assign := ext.AssignmentFromInputs(enc.Formula.NumVars, rows[b])
			want := enc.Formula.Sat(assign)
			if got != want {
				t.Fatalf("trial %d row %d: packed=%v oracle=%v", trial, b, got, want)
			}
		}
	}
}

// TestNodelessVariableConventions: variables with no circuit node default
// to false, so a clause with a negative nodeless literal is always
// satisfied and a positive nodeless literal contributes nothing.
func TestNodelessVariableConventions(t *testing.T) {
	c := circuit.NewCircuit()
	x := c.AddInput("x")
	c.MarkOutput(x, true)
	nodeOf := map[int]circuit.NodeID{1: x}

	f := cnf.New(2)
	f.AddClause(cnf.Lit(1), cnf.Lit(-2)) // ¬v2 true by default: clause dropped
	cols := [][]uint64{{0b10}}
	valid := make([]uint64, 1)
	bitblast.New(c, nodeOf, f).NewEval().Verify(cols, 1, valid)
	if valid[0]&0b11 != 0b11 {
		t.Errorf("negative nodeless literal should satisfy the clause, got %b", valid[0]&0b11)
	}

	g := cnf.New(2)
	g.AddClause(cnf.Lit(1), cnf.Lit(2)) // v2 false by default: only x matters
	bitblast.New(c, nodeOf, g).NewEval().Verify(cols, 1, valid)
	if valid[0]&0b11 != 0b10 {
		t.Errorf("positive nodeless literal must not satisfy the clause, got %b", valid[0]&0b11)
	}

	h := cnf.New(2)
	h.AddClause(cnf.Lit(2)) // unsatisfiable through the circuit
	bitblast.New(c, nodeOf, h).NewEval().Verify(cols, 1, valid)
	if valid[0] != 0 {
		t.Errorf("clause on a false-default variable should never verify, got %b", valid[0])
	}
}

// TestVerifyMaskedMatchesVerify: the masked incremental sweep must agree
// with the full sweep on every dirty word and must not touch the cached
// validity of clean words — the contract the continuous-batch scheduler's
// per-iteration verification relies on.
func TestVerifyMaskedMatchesVerify(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 20; trial++ {
		c := randomCircuit(r, 3+r.Intn(5), 5+r.Intn(15))
		enc := c.Tseitin()
		ext, err := extract.Transform(enc.Formula)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		n := len(ext.Circuit.Inputs)
		if n == 0 {
			continue
		}
		batch := 70 + r.Intn(200) // covers tail lanes and multi-word batches
		cols, _ := packInputs(r, n, batch)
		words := (batch + 63) / 64
		prog := ext.Verifier(enc.Formula)
		full := make([]uint64, words)
		prog.NewEval().Verify(cols, words, full)

		mask := make([]uint64, words)
		cached := make([]uint64, words)
		ev := prog.NewEval()
		for w := 0; w < words; w++ {
			if r.Intn(2) == 0 {
				mask[w] = 1 << uint(r.Intn(64)) // any dirty lane marks the word
			}
			cached[w] = r.Uint64() // stale garbage the sweep must preserve
		}
		want := append([]uint64(nil), cached...)
		ev.VerifyMasked(cols, words, mask, cached)
		for w := 0; w < words; w++ {
			if mask[w] != 0 {
				if cached[w] != full[w] {
					t.Fatalf("trial %d word %d: masked=%x full=%x", trial, w, cached[w], full[w])
				}
			} else if cached[w] != want[w] {
				t.Fatalf("trial %d word %d: clean word rewritten %x -> %x", trial, w, want[w], cached[w])
			}
		}
		// All-dirty masked sweep == full sweep.
		for w := range mask {
			mask[w] = ^uint64(0)
		}
		ev.VerifyMasked(cols, words, mask, cached)
		for w := 0; w < words; w++ {
			if cached[w] != full[w] {
				t.Fatalf("trial %d word %d: all-dirty masked sweep diverged", trial, w)
			}
		}
	}
}

// TestVerifyProjectMatchesOracle: the packed projected signatures must
// agree lane-by-lane (including tail lanes) with projecting the per-row
// oracle's full assignment, for projections over every variable class (PI,
// intermediate, PO, nodeless).
func TestVerifyProjectMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		c := randomCircuit(r, 3+r.Intn(5), 5+r.Intn(15))
		enc := c.Tseitin()
		ext, err := extract.Transform(enc.Formula)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		n := len(ext.Circuit.Inputs)
		if n == 0 {
			continue
		}
		// Random projection over the CNF variables plus one past NumVars
		// (nodeless, defaults false).
		nv := enc.Formula.NumVars
		var vars []int
		for v := 1; v <= nv; v++ {
			if r.Intn(3) == 0 {
				vars = append(vars, v)
			}
		}
		vars = append(vars, nv+1)
		plan := ext.ProjectionNodes(vars)

		batch := 70
		cols, rows := packInputs(r, n, batch)
		words := (batch + 63) / 64
		valid := make([]uint64, words)
		proj := make([][]uint64, len(vars))
		for k := range proj {
			proj[k] = make([]uint64, words)
		}
		ev := ext.Verifier(enc.Formula).NewEval()
		ev.VerifyProject(cols, words, valid, plan, proj)

		fullValid := make([]uint64, words)
		ext.Verifier(enc.Formula).NewEval().Verify(cols, words, fullValid)
		for b := 0; b < batch; b++ {
			if valid[b>>6] != fullValid[b>>6] {
				t.Fatalf("trial %d: VerifyProject changed validity word %d", trial, b>>6)
			}
			assign := ext.AssignmentFromInputs(nv, rows[b])
			for k, v := range vars {
				got := proj[k][b>>6]>>(uint(b)&63)&1 == 1
				want := v <= nv && assign[v-1]
				if got != want {
					t.Fatalf("trial %d row %d var %d: projected=%v oracle=%v", trial, b, v, got, want)
				}
			}
		}

		// Masked variant: clean words keep stale projection bits, dirty
		// words match the full sweep.
		mask := make([]uint64, words)
		cachedV := make([]uint64, words)
		cachedP := make([][]uint64, len(vars))
		for k := range cachedP {
			cachedP[k] = make([]uint64, words)
			for w := range cachedP[k] {
				cachedP[k][w] = r.Uint64()
			}
		}
		wantP := make([][]uint64, len(vars))
		for k := range wantP {
			wantP[k] = append([]uint64(nil), cachedP[k]...)
		}
		for w := 0; w < words; w++ {
			if r.Intn(2) == 0 {
				mask[w] = 1
			}
		}
		ev.VerifyMaskedProject(cols, words, mask, cachedV, plan, cachedP)
		for w := 0; w < words; w++ {
			for k := range vars {
				if mask[w] != 0 {
					if cachedP[k][w] != proj[k][w] {
						t.Fatalf("trial %d word %d var %d: masked projection diverged", trial, w, k)
					}
				} else if cachedP[k][w] != wantP[k][w] {
					t.Fatalf("trial %d word %d var %d: clean projection word rewritten", trial, w, k)
				}
			}
		}
	}
}

// TestVerifyProjectZeroAllocs: the projected sweep must not allocate.
func TestVerifyProjectZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	c := randomCircuit(r, 6, 20)
	enc := c.Tseitin()
	ext, err := extract.Transform(enc.Formula)
	if err != nil {
		t.Fatal(err)
	}
	cols, _ := packInputs(r, len(ext.Circuit.Inputs), 256)
	words := 4
	vars := []int{1, 2, enc.Formula.NumVars}
	plan := ext.ProjectionNodes(vars)
	proj := make([][]uint64, len(vars))
	for k := range proj {
		proj[k] = make([]uint64, words)
	}
	valid := make([]uint64, words)
	mask := []uint64{^uint64(0), 0, 1, 0}
	ev := ext.Verifier(enc.Formula).NewEval()
	if allocs := testing.AllocsPerRun(100, func() {
		ev.VerifyProject(cols, words, valid, plan, proj)
	}); allocs != 0 {
		t.Errorf("VerifyProject allocates %.1f times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		ev.VerifyMaskedProject(cols, words, mask, valid, plan, proj)
	}); allocs != 0 {
		t.Errorf("VerifyMaskedProject allocates %.1f times per call, want 0", allocs)
	}
}

// TestVerifyMaskedZeroAllocs: the incremental sweep must not allocate.
func TestVerifyMaskedZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	c := randomCircuit(r, 6, 20)
	enc := c.Tseitin()
	ext, err := extract.Transform(enc.Formula)
	if err != nil {
		t.Fatal(err)
	}
	cols, _ := packInputs(r, len(ext.Circuit.Inputs), 256)
	words := 4
	mask := []uint64{^uint64(0), 0, 1, 0}
	valid := make([]uint64, words)
	ev := ext.Verifier(enc.Formula).NewEval()
	allocs := testing.AllocsPerRun(100, func() { ev.VerifyMasked(cols, words, mask, valid) })
	if allocs != 0 {
		t.Errorf("VerifyMasked allocates %.1f times per call, want 0", allocs)
	}
}

// TestVerifyZeroAllocs: the word sweep must not allocate.
func TestVerifyZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	c := randomCircuit(r, 6, 20)
	enc := c.Tseitin()
	ext, err := extract.Transform(enc.Formula)
	if err != nil {
		t.Fatal(err)
	}
	n := len(ext.Circuit.Inputs)
	cols, _ := packInputs(r, n, 256)
	words := 4
	valid := make([]uint64, words)
	ev := ext.Verifier(enc.Formula).NewEval()
	ev.Verify(cols, words, valid)
	allocs := testing.AllocsPerRun(100, func() { ev.Verify(cols, words, valid) })
	if allocs != 0 {
		t.Errorf("Verify allocates %.1f times per call, want 0", allocs)
	}
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
		ev := ext.Verifier(enc.Formula).NewEval()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.Verify(cols, words, valid)
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, row := range rows {
				assign := ext.AssignmentFromInputs(enc.Formula.NumVars, row)
				if enc.Formula.Sat(assign) {
					valid[0] |= 1
				}
			}
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}
