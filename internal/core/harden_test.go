package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/bitblast"
	"repro/internal/tensor"
)

// TestPositiveIsGreaterThanZero: the branch-free harden must give exactly
// v > 0 for every float32 — signed zeros, subnormals, the extremes,
// infinities, and NaNs of either sign and either kind, which a decoded
// snapshot's V may hold — and for a million random bit patterns.
func TestPositiveIsGreaterThanZero(t *testing.T) {
	check := func(b uint32) {
		v := math.Float32frombits(b)
		want := uint64(0)
		if v > 0 {
			want = 1
		}
		if got := positive(v); got != want {
			t.Fatalf("positive(%g = %#08x) = %d, want %d", v, b, got, want)
		}
	}
	for _, b := range []uint32{
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x80000001, // ±smallest subnormal
		0x007FFFFF, 0x807FFFFF, // ±largest subnormal
		0x3F800000, 0xBF800000, // ±1
		0x7F7FFFFF, 0xFF7FFFFF, // ±MaxFloat32
		0x7F800000, 0xFF800000, // ±Inf
		0x7FC00000, 0xFFC00000, // ±quiet NaN
		0x7F800001, 0xFF800001, // ±signalling NaN
		0x7FFFFFFF, 0xFFFFFFFF, // ±NaN with every payload bit set
	} {
		check(b)
	}
	r := rand.New(rand.NewSource(71))
	for i := 0; i < 1<<20; i++ {
		check(r.Uint32())
	}
}

// TestPackTileMatchesBranchyHarden: the pack phase, run over every tile,
// must repack exactly the changed lanes with the per-lane branchy oracle
// (bit = v > 0), leave every other lane's bits alone, clear the change
// map, and re-verify exactly the dirty words — on batches that are not a
// multiple of 64, under random partial change masks, with V holding
// noise, signed zeros, infinities and NaNs, at one and three workers.
func TestPackTileMatchesBranchyHarden(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	p := mustCompile(t, benchgen.Iscas("iscas-small", 16, 60, 2, 3).Formula)
	specials := []float32{0, float32(math.Copysign(0, -1)), 1, -1, float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7FC00000), math.Float32frombits(0xFFC00000),
		math.Float32frombits(0x7F800001), math.Float32frombits(0x00000001), math.Float32frombits(0x80000001)}
	for _, batch := range []int{37, 200, 1000} {
		for _, dev := range []tensor.Device{tensor.Sequential(), tensor.ParallelN(3)} {
			s, err := p.NewSampler(Config{BatchSize: batch, Seed: 9, Device: dev})
			if err != nil {
				t.Fatal(err)
			}
			s.initContinuous()
			words := len(s.chg)
			for pass := 0; pass < 3; pass++ {
				for i := range s.vmat.Data {
					switch r.Intn(4) {
					case 0:
						s.vmat.Data[i] = specials[r.Intn(len(specials))]
					case 1:
						s.vmat.Data[i] = math.Float32frombits(r.Uint32())
					default:
						s.vmat.Data[i] = float32(r.NormFloat64())
					}
				}
				// Stale columns and masks; a random partial change map over
				// the batch's lanes (the first pass changes every lane).
				for i := range s.colbuf {
					s.colbuf[i] = r.Uint64()
				}
				for w := range s.valid {
					s.valid[w] = r.Uint64()
				}
				if pass > 0 {
					for w := range s.chg {
						s.chg[w] = r.Uint64() & r.Uint64()
						if r.Intn(4) == 0 {
							s.chg[w] = 0
						}
					}
					if tail := uint(batch) & 63; tail != 0 {
						s.chg[words-1] &= 1<<tail - 1
					}
				}
				wantCols := make([][]uint64, len(s.cols))
				for i, col := range s.cols {
					wantCols[i] = append([]uint64(nil), col...)
				}
				chg := append([]uint64(nil), s.chg...)
				for lane := 0; lane < batch; lane++ {
					w, bit := lane>>6, uint64(1)<<(uint(lane)&63)
					if chg[w]&bit == 0 {
						continue
					}
					for i, v := range s.vmat.Row(lane) {
						if v > 0 {
							wantCols[i][w] |= bit
						} else {
							wantCols[i][w] &^= bit
						}
					}
				}
				wantValid := append([]uint64(nil), s.valid...)
				fresh := make([]uint64, words)
				p.verify.NewEval(nil).Sweep(wantCols, 0, words, nil, fresh, nil)
				for w := range wantValid {
					if chg[w] != 0 {
						wantValid[w] = fresh[w]
					}
				}

				s.runTiles(s.packPh)

				for i := range wantCols {
					for w := range wantCols[i] {
						if s.cols[i][w] != wantCols[i][w] {
							t.Fatalf("batch %d %s pass %d: input %d word %d packed %x, want %x",
								batch, dev.Name(), pass, i, w, s.cols[i][w], wantCols[i][w])
						}
					}
				}
				for w := range wantValid {
					if s.valid[w] != wantValid[w] {
						t.Fatalf("batch %d %s pass %d: valid word %d = %x, want %x (changed %x)",
							batch, dev.Name(), pass, w, s.valid[w], wantValid[w], chg[w])
					}
					if s.chg[w] != 0 {
						t.Fatalf("batch %d %s pass %d: change word %d left %x", batch, dev.Name(), pass, w, s.chg[w])
					}
				}
			}
		}
	}
}

// BenchmarkFirstSweep times phase A's pack-and-verify half over a whole
// batch, as a session's first tick runs it: every lane changed, so every
// row of fresh noise is hardened and every word verified. The shape is a
// serve-cold request's: an iscas-120 instance at batch 8192 on one
// worker. It reports its allocations, which must be zero: the pack phase
// runs inside every tick.
func BenchmarkFirstSweep(b *testing.B) {
	p, err := CompileCNF(benchgen.Iscas("cold-0", 120, 1200, 4, 6001).Formula)
	if err != nil {
		b.Fatal(err)
	}
	s, err := p.NewSampler(Config{BatchSize: 8192, Seed: 1, Device: tensor.Sequential()})
	if err != nil {
		b.Fatal(err)
	}
	s.initContinuous()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.markAllChanged()
		s.runTiles(s.packPh)
	}
}

// TestTranspose64MatchesBitOracle: transpose64 must move bit j of row i
// to bit i of row j — checked bit by bit against a per-bit oracle on
// random matrices and on structured ones (empty, full, identity,
// anti-diagonal, one row, one column, single bits, a checkerboard) — and
// applying it twice must give back the matrix.
func TestTranspose64MatchesBitOracle(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	var cases [][64]uint64
	var m [64]uint64
	cases = append(cases, m) // empty
	for i := range m {
		m[i] = ^uint64(0)
	}
	cases = append(cases, m) // full
	var id, anti, checker [64]uint64
	for i := range id {
		id[i] = 1 << uint(i)
		anti[i] = 1 << uint(63-i)
		checker[i] = 0x5555555555555555 << uint(i&1)
	}
	cases = append(cases, id, anti, checker)
	for _, k := range []int{0, 1, 31, 32, 63} {
		var row, col, one [64]uint64
		row[k] = ^uint64(0)
		for i := range col {
			col[i] = 1 << uint(k)
		}
		one[k] = 1 << uint(63-k)
		cases = append(cases, row, col, one)
	}
	for i := 0; i < 200; i++ {
		var x [64]uint64
		for j := range x {
			x[j] = r.Uint64() & r.Uint64() // sparse-ish and dense alike
			if i&1 == 0 {
				x[j] = r.Uint64()
			}
		}
		cases = append(cases, x)
	}
	for c, in := range cases {
		got := in
		transpose64(&got)
		for i := 0; i < 64; i++ {
			for j := 0; j < 64; j++ {
				if got[j]>>uint(i)&1 != in[i]>>uint(j)&1 {
					t.Fatalf("case %d: bit %d of row %d is %d, want bit %d of row %d (%d)",
						c, i, j, got[j]>>uint(i)&1, j, i, in[i]>>uint(j)&1)
				}
			}
		}
		transpose64(&got)
		if got != in {
			t.Fatalf("case %d: transposing twice does not give back the matrix", c)
		}
	}
}

// packLane gathers lane r of the packed columns into the packed row dst,
// one bit at a time: the oracle the merge's word transposes (rowBlock)
// are held to.
func packLane(dst []uint64, cols [][]uint64, r int) {
	w, b := r>>6, uint(r)&63
	for i := range dst {
		dst[i] = 0
	}
	for i, col := range cols {
		dst[i>>6] |= (col[w] >> b & 1) << (uint(i) & 63)
	}
}

// TestMergeRowsMatchPackLane: the rows the merge inserts — input rows,
// and under a projection the projected rows and witnesses — must equal
// packLane's for every lane, tail lanes of a ragged batch included, over
// rows of more than one word whose last word is partial. Lanes are read
// as a merge reads them, ascending and skipping words, across several
// ticks, so a block left from an earlier tick must never be reused.
func TestMergeRowsMatchPackLane(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	p := mustCompile(t, benchgen.Iscas("iscas-wide", 150, 500, 3, 29).Formula)
	if n := p.NumInputs(); n <= 128 || n%64 == 0 {
		t.Fatalf("fixture has %d inputs, want more than two row words with a partial last one", n)
	}
	var proj []int
	for v := 1; v <= 100; v++ {
		proj = append(proj, 3*v)
	}
	for _, batch := range []int{37, 200, 1000} {
		for _, projection := range [][]int{{}, proj} {
			s, err := p.NewSampler(Config{BatchSize: batch, Seed: 5, Projection: projection})
			if err != nil {
				t.Fatal(err)
			}
			s.ContinuousStep(0)
			for tick := 0; tick < 4; tick++ {
				s.ContinuousStep(0)
				// Stale blocks from the tick's own merge: resetRows must make
				// the next read transpose afresh.
				s.resetRows()
				want := make([]uint64, s.inRows.words)
				var pwant []uint64
				if s.projPlan != nil {
					pwant = make([]uint64, s.projRows.words)
				}
				for lane := 0; lane < 64*len(s.valid); lane++ {
					if r.Intn(3) == 0 {
						continue
					}
					packLane(want, s.cols, lane)
					if got := s.inRows.row(s.cols, lane); !slices.Equal(got, want) {
						t.Fatalf("batch %d proj %d tick %d lane %d: input row %x, want %x", batch, len(projection), tick, lane, got, want)
					}
					if pwant != nil {
						packLane(pwant, s.projCols, lane)
						if got := s.projRows.row(s.projCols, lane); !slices.Equal(got, pwant) {
							t.Fatalf("batch %d tick %d lane %d: projected row %x, want %x", batch, tick, lane, got, pwant)
						}
					}
				}
			}
			// The pool's keys and witnesses are rows the merge inserted:
			// each must be a packLane row of a model.
			for i := 0; i < s.UniqueCount(); i++ {
				row := s.inputRow(i)
				if !s.prob.formula.Sat(s.FullAssignment(bitblast.UnpackRow(make([]bool, s.NumInputs()), row))) {
					t.Fatalf("batch %d proj %d: solution %d is not a model", batch, len(projection), i)
				}
			}
		}
	}
}

// BenchmarkHardenSparse times the pack phase when every packed word holds
// exactly one changed lane — the transpose's worst case, where a whole
// 64×64 block moves for one lane — at the gd-hard (or-400-80) and table2
// (Prod-32-c20) shapes, batch 1024 on one worker.
func BenchmarkHardenSparse(b *testing.B) {
	for _, in := range []*benchgen.Instance{
		benchgen.OrChain("or-400-80", 400, 80, 4001),
		benchgen.Prod("Prod-32-c20", 1061, 20, 32),
	} {
		b.Run(in.Name, func(b *testing.B) {
			p, err := CompileCNF(in.Formula)
			if err != nil {
				b.Fatal(err)
			}
			s, err := p.NewSampler(Config{BatchSize: 1024, Seed: 1, Device: tensor.Sequential()})
			if err != nil {
				b.Fatal(err)
			}
			s.initContinuous()
			s.runTiles(s.packPh)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for w := range s.chg {
					s.chg[w] = 1 << uint((i+w)&63)
				}
				s.runTiles(s.packPh)
			}
		})
	}
}

// BenchmarkFirstTick times a serve-cold request's first tick from a
// compiled problem: NewSampler, then the first ContinuousStep (the whole
// batch hardened and verified as raw noise, the merge of every valid
// row, refill and one GD step) — cold-0 at batch 8192 on one worker.
func BenchmarkFirstTick(b *testing.B) {
	p, err := CompileCNF(benchgen.Iscas("cold-0", 120, 1200, 4, 6001).Formula)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := p.NewSampler(Config{BatchSize: 8192, Seed: int64(i), Device: tensor.Sequential()})
		if err != nil {
			b.Fatal(err)
		}
		s.ContinuousStep(0)
	}
}
