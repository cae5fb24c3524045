package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/benchgen"
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
				p.verify.NewEval().Sweep(wantCols, 0, words, nil, fresh, nil, nil)
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
