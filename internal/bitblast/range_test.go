package bitblast_test

import (
	"math/rand"
	"testing"

	"repro/internal/bitblast"
	"repro/internal/extract"
)

// TestVerifyMaskedRangeMatchesFull: sweeping a word range per worker (the
// parallel scheduler's per-tile form) must agree with the full masked sweep
// on masked words and leave everything else — including masked words
// outside the range — untouched.
func TestVerifyMaskedRangeMatchesFull(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		c := randomCircuit(r, 4+r.Intn(5), 8+r.Intn(15))
		enc := c.Tseitin()
		ext, err := extract.Transform(enc.Formula)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		n := len(ext.Circuit.Inputs)
		if n == 0 {
			continue
		}
		batch := 64*9 + 17 // 10 words, ragged tail
		words := (batch + 63) / 64
		cols, _ := packInputs(r, n, batch)
		prog := bitblast.New(ext.Circuit, ext.NodeOf, enc.Formula, nil)

		want := make([]uint64, words)
		prog.NewEval().Verify(cols, words, want)

		mask := make([]uint64, words)
		for w := range mask {
			if r.Intn(3) != 0 {
				mask[w] = 1
			}
		}
		const sentinel = 0xDEADBEEFCAFEF00D
		got := make([]uint64, words)
		for w := range got {
			got[w] = sentinel
		}
		// Split [0, words) at an arbitrary boundary and sweep each half with
		// its own Eval, as two workers would.
		cut := 1 + r.Intn(words-1)
		prog.NewEval().VerifyMaskedRange(cols, 0, cut, mask, got)
		prog.NewEval().VerifyMaskedRange(cols, cut, words, mask, got)
		for w := 0; w < words; w++ {
			if mask[w] != 0 {
				if got[w] != want[w] {
					t.Fatalf("trial %d word %d (cut %d): range sweep diverged", trial, w, cut)
				}
			} else if got[w] != sentinel {
				t.Fatalf("trial %d word %d: clean word rewritten", trial, w)
			}
		}

		// A range covering only part of the mask leaves out-of-range dirty
		// words alone.
		for w := range got {
			got[w] = sentinel
		}
		prog.NewEval().VerifyMaskedRange(cols, cut, words, mask, got)
		for w := 0; w < cut; w++ {
			if got[w] != sentinel {
				t.Fatalf("trial %d word %d: out-of-range word rewritten", trial, w)
			}
		}
	}
}

// TestVerifyMaskedProjectRangeMatchesFull: the projected per-tile sweep
// must match the full projected sweep on masked in-range words and
// preserve cached projections elsewhere.
func TestVerifyMaskedProjectRangeMatchesFull(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		c := randomCircuit(r, 4+r.Intn(5), 8+r.Intn(15))
		enc := c.Tseitin()
		ext, err := extract.Transform(enc.Formula)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		n := len(ext.Circuit.Inputs)
		if n == 0 {
			continue
		}
		nv := enc.Formula.NumVars
		var vars []int
		for v := 1; v <= nv; v++ {
			if r.Intn(3) == 0 {
				vars = append(vars, v)
			}
		}
		plan := ext.ProjectionNodes(vars)

		batch := 64*6 + 5
		words := (batch + 63) / 64
		cols, _ := packInputs(r, n, batch)
		prog := bitblast.New(ext.Circuit, ext.NodeOf, enc.Formula, nil)

		wantV := make([]uint64, words)
		wantP := make([][]uint64, len(vars))
		for k := range wantP {
			wantP[k] = make([]uint64, words)
		}
		prog.NewEval().VerifyProject(cols, words, wantV, plan, wantP)

		mask := make([]uint64, words)
		for w := range mask {
			if r.Intn(2) == 0 {
				mask[w] = 1
			}
		}
		const sentinel = 0xDEADBEEFCAFEF00D
		gotV := make([]uint64, words)
		gotP := make([][]uint64, len(vars))
		for k := range gotP {
			gotP[k] = make([]uint64, words)
			for w := range gotP[k] {
				gotP[k][w] = sentinel
			}
		}
		for w := range gotV {
			gotV[w] = sentinel
		}
		cut := 1 + r.Intn(words-1)
		prog.NewEval().VerifyMaskedProjectRange(cols, 0, cut, mask, gotV, plan, gotP)
		prog.NewEval().VerifyMaskedProjectRange(cols, cut, words, mask, gotV, plan, gotP)
		for w := 0; w < words; w++ {
			if mask[w] != 0 {
				if gotV[w] != wantV[w] {
					t.Fatalf("trial %d word %d: validity diverged", trial, w)
				}
				for k := range vars {
					if gotP[k][w] != wantP[k][w] {
						t.Fatalf("trial %d word %d var %d: projection diverged", trial, w, k)
					}
				}
			} else {
				if gotV[w] != sentinel {
					t.Fatalf("trial %d word %d: clean validity rewritten", trial, w)
				}
				for k := range vars {
					if gotP[k][w] != sentinel {
						t.Fatalf("trial %d word %d var %d: clean projection rewritten", trial, w, k)
					}
				}
			}
		}
	}
}

// TestVerifyMaskedRangeZeroAllocs: the per-tile sweeps must not allocate
// (they run inside the scheduler's steady-state tick).
func TestVerifyMaskedRangeZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	c := randomCircuit(r, 6, 20)
	enc := c.Tseitin()
	ext, err := extract.Transform(enc.Formula)
	if err != nil {
		t.Fatal(err)
	}
	cols, _ := packInputs(r, len(ext.Circuit.Inputs), 512)
	words := 8
	mask := []uint64{^uint64(0), 0, 1, 0, 3, 3, 0, 1}
	valid := make([]uint64, words)
	vars := []int{1, 2, enc.Formula.NumVars}
	plan := ext.ProjectionNodes(vars)
	proj := make([][]uint64, len(vars))
	for k := range proj {
		proj[k] = make([]uint64, words)
	}
	ev := bitblast.New(ext.Circuit, ext.NodeOf, enc.Formula, nil).NewEval()
	if allocs := testing.AllocsPerRun(100, func() {
		ev.VerifyMaskedRange(cols, 2, 7, mask, valid)
	}); allocs != 0 {
		t.Errorf("VerifyMaskedRange allocates %.1f times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		ev.VerifyMaskedProjectRange(cols, 2, 7, mask, valid, plan, proj)
	}); allocs != 0 {
		t.Errorf("VerifyMaskedProjectRange allocates %.1f times per call, want 0", allocs)
	}
}
