package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/bitblast"
	"repro/internal/cnf"
	"repro/internal/tensor"
)

// streamSig renders a sampler's full solution stream (discovery order) as
// comparable strings, including hit tallies and projected signatures — the
// observable a resumed session must reproduce byte for byte.
func streamSig(s *Sampler) []string {
	sols := s.Solutions()
	hits := s.SolutionHits()
	out := make([]string, len(sols))
	for i := range sols {
		out[i] = fmtBits(sols[i])
		if s.Projection() != nil {
			out[i] += "|" + fmtBits(s.ProjectedSolutionAt(i))
		}
		out[i] += fmt.Sprintf("#%d", hits[i])
	}
	return out
}

// statsEqual compares two Stats ignoring wall-clock Elapsed.
func statsEqual(a, b Stats) bool {
	a.Elapsed, b.Elapsed = 0, 0
	return a == b
}

// roundTrip pushes a snapshot through the binary codec, failing the test on
// any codec error — so every restore in this file also exercises
// MarshalBinary/DecodeSnapshot, not just the in-memory copy.
func roundTrip(t *testing.T, sn *Snapshot) *Snapshot {
	t.Helper()
	blob, err := sn.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	dec, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// The codec must be canonical: re-encoding the decoded snapshot yields
	// the identical bytes.
	blob2, err := dec.MarshalBinary()
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("codec is not canonical: decode→encode changed the bytes")
	}
	return dec
}

// TestSnapshotResumeEquivalence is the tentpole invariant: for a fixed
// seed, interrupting a session at ANY tick, marshaling the snapshot,
// decoding it, and restoring — onto an independently compiled Problem
// (the cold-cache situation a server restart creates) and onto a device
// with a different worker count — must produce the byte-identical solution
// stream (order, witnesses, projected signatures, hit tallies) and
// identical stats that the uninterrupted run produces. Continuous and
// round mode, a session that runs a Round between continuous ticks, 1 and
// 7 workers, unprojected and projected. A schedule names each tick: 'c'
// for ContinuousStep, 'r' for Round.
func TestSnapshotResumeEquivalence(t *testing.T) {
	type variant struct {
		name     string
		formula  string
		cfg      Config
		schedule string
	}
	cont, rounds := strings.Repeat("c", 24), strings.Repeat("r", 6)
	variants := []variant{
		{"continuous-seq", paperExample, Config{BatchSize: 128, Seed: 11, MaxAge: 4}, cont},
		{"continuous-7w", paperExample, Config{BatchSize: 192, Seed: 5, MaxAge: 4, Device: tensor.ParallelN(7)}, cont},
		{"continuous-projected", projFormula, Config{BatchSize: 128, Seed: 9}, cont[:20]},
		{"round-seq", paperExample, Config{BatchSize: 128, Seed: 7}, rounds},
		{"round-7w", paperExample, Config{BatchSize: 128, Seed: 7, Device: tensor.ParallelN(7)}, rounds},
		// The restart counters outlive a Round: a snapshot taken after it
		// must carry them into the continuous ticks that follow.
		{"round-then-continuous", paperExample, Config{BatchSize: 128, Seed: 5, MaxAge: 2}, cont[:6] + "r" + cont[:10]},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			f := mustFormula(t, v.formula)
			ticks := len(v.schedule)
			tick := func(s *Sampler, i int) {
				if v.schedule[i] == 'r' {
					s.Round()
				} else {
					s.ContinuousStep(0)
				}
			}

			base := newSampler(t, f, v.cfg)
			for i := 0; i < ticks; i++ {
				tick(base, i)
			}
			want := streamSig(base)
			if len(want) == 0 {
				t.Fatal("baseline run found no solutions; variant exercises nothing")
			}

			// Interrupt at every tick boundary, including 0 (before any work)
			// and ticks (after all of it).
			for cut := 0; cut <= ticks; cut++ {
				s := newSampler(t, f, v.cfg)
				for i := 0; i < cut; i++ {
					tick(s, i)
				}
				sn := roundTrip(t, s.Snapshot())
				// Restore onto a freshly compiled Problem (same content hash)
				// on the opposite parallelism: solution streams are
				// deterministic across worker counts, so resume must be too.
				prob, err := CompileCNF(mustFormula(t, v.formula))
				if err != nil {
					t.Fatal(err)
				}
				dev := tensor.ParallelN(3)
				if v.cfg.Device.Workers() > 1 {
					dev = tensor.Sequential()
				}
				r, err := RestoreSampler(prob, sn, dev)
				if err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				for i := cut; i < ticks; i++ {
					tick(r, i)
				}
				got := streamSig(r)
				if len(got) != len(want) {
					t.Fatalf("cut %d: resumed stream has %d solutions, uninterrupted %d", cut, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("cut %d: stream diverges at solution %d:\n  resumed       %s\n  uninterrupted %s", cut, i, got[i], want[i])
					}
				}
				if !statsEqual(r.Stats(), base.Stats()) {
					t.Fatalf("cut %d: stats diverged:\n  resumed       %+v\n  uninterrupted %+v", cut, r.Stats(), base.Stats())
				}
			}
		})
	}
}

// TestSnapshotExhaustedSurvivesResume: the saturation guard's verdict is
// session state — restoring a snapshot of an exhausted session must not
// resurrect it into re-exploring a space the original declared done.
func TestSnapshotExhaustedSurvivesResume(t *testing.T) {
	// x3 = x1 OR x2 = 1: exactly 3 solutions, so an unreachable target
	// trips the guard quickly.
	f := mustFormula(t, "p cnf 3 4\n-3 1 2 0\n3 -1 0\n3 -2 0\n3 0\n")
	s := newSampler(t, f, Config{BatchSize: 32, Seed: 4})
	s.SampleUntil(10, 0)
	if !s.Exhausted() {
		t.Fatal("session did not saturate")
	}
	sn := roundTrip(t, s.Snapshot())
	prob, err := CompileCNF(f)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreSampler(prob, sn, tensor.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exhausted() {
		t.Fatal("restored session lost the saturation verdict")
	}
	if got := r.UniqueCount(); got != 3 {
		t.Fatalf("restored pool holds %d solutions, want 3", got)
	}
	st := r.SampleUntil(10, 0)
	if st.Unique != 3 {
		t.Fatalf("restored exhausted session changed its pool: %d unique", st.Unique)
	}
}

// TestSnapshotRejectsWrongProblem: a snapshot restores only onto the
// identical compiled artifact — a different formula (different content
// hash) must be refused with ErrBadSnapshot.
func TestSnapshotRejectsWrongProblem(t *testing.T) {
	f := mustFormula(t, paperExample)
	g := mustFormula(t, "p cnf 3 4\n-3 1 2 0\n3 -1 0\n3 -2 0\n3 0\n")
	s := newSampler(t, f, Config{BatchSize: 64, Seed: 1})
	s.ContinuousStep(0)
	sn := roundTrip(t, s.Snapshot())
	pg, err := CompileCNF(g)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RestoreSampler(pg, sn, tensor.Sequential())
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("restore onto a different problem: err = %v, want ErrBadSnapshot", err)
	}
}

// TestDecodeSnapshotRejectsCorruption: every single-byte corruption and
// every truncation of a valid snapshot must fail cleanly (the CRC or a
// structural check), never panic, and never decode successfully — a
// resumed session built from damaged state would silently violate the
// zero-loss contract.
func TestDecodeSnapshotRejectsCorruption(t *testing.T) {
	f := mustFormula(t, projFormula)
	s := newSampler(t, f, Config{BatchSize: 64, Seed: 2})
	for i := 0; i < 8; i++ {
		s.ContinuousStep(0)
	}
	blob, err := s.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(blob); off++ {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x40
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("flipping byte %d of %d decoded successfully", off, len(blob))
		}
	}
	for cut := 0; cut < len(blob); cut += 7 {
		if _, err := DecodeSnapshot(blob[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", cut, len(blob))
		}
	}
	if _, err := DecodeSnapshot(nil); err == nil {
		t.Fatal("nil input decoded successfully")
	}
}

// gdssFlagsAt returns the offset of an encoded snapshot's flag byte:
// magic, version, key; batch, iterations, max age, lr, init range; seed;
// workers, inputs.
func gdssFlagsAt(blob []byte) int {
	return 8 + int(binary.LittleEndian.Uint16(blob[6:])) + 5*4 + 8 + 2*4
}

// reseal rewrites an encoded snapshot's CRC-32 trailer after an edit.
func reseal(blob []byte) []byte {
	end := len(blob) - crc32.Size
	binary.LittleEndian.PutUint32(blob[end:], crc32.ChecksumIEEE(blob[:end]))
	return blob
}

// TestDecodeSnapshotRefusesUndefinedFlags: the flag byte defines only the
// scheduler, exhausted and projection bits. A sealed snapshot with any
// other bit set — a low bit (0, 1) or a high one — is refused, so no two
// blobs decode to one snapshot.
func TestDecodeSnapshotRefusesUndefinedFlags(t *testing.T) {
	blob := readFixture(t, "gdss_v2.bin")
	flags := gdssFlagsAt(blob)
	for _, bit := range []uint{0, 1, 5, 6, 7} {
		mut := append([]byte(nil), blob...)
		mut[flags] |= 1 << bit
		if _, err := DecodeSnapshot(reseal(mut)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("flag bit %d: decode error %v, want ErrBadSnapshot", bit, err)
		}
	}
}

// TestRestoreRejectsSchedulerShape: restore refuses scheduler arrays that
// do not fit the session's tiles. Each edit changes one array of a real
// multi-tile snapshot; the edited snapshot is refused both as it stands
// and after a trip through the codec.
func TestRestoreRejectsSchedulerShape(t *testing.T) {
	s := newSampler(t, mustFormula(t, paperExample), Config{BatchSize: 192, Seed: 3})
	for i := 0; i < 3; i++ {
		s.ContinuousStep(0)
	}
	blob, err := s.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if s.numTiles < 3 {
		t.Fatalf("batch 192 spans %d tiles; the edits need at least 3", s.numTiles)
	}
	for name, edit := range map[string]func(sn *Snapshot){
		"active-short":   func(sn *Snapshot) { sn.active = sn.active[:len(sn.active)-1] },
		"over-capacity":  func(sn *Snapshot) { sn.active[1] = int32(s.tileCap(1) + 1) },
		"negative":       func(sn *Snapshot) { sn.active[2] = -1 },
		"ages-short":     func(sn *Snapshot) { sn.ages = sn.ages[:len(sn.ages)-1] },
		"restarts-short": func(sn *Snapshot) { sn.restarts = sn.restarts[:len(sn.restarts)-1] },
	} {
		sn, err := DecodeSnapshot(blob)
		if err != nil {
			t.Fatal(err)
		}
		edit(sn)
		if _, err := RestoreSampler(s.Problem(), sn, tensor.Sequential()); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: restore error %v, want ErrBadSnapshot", name, err)
		}
		mut, err := sn.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if dec, err := DecodeSnapshot(mut); err == nil {
			_, err = RestoreSampler(s.Problem(), dec, tensor.Sequential())
			if !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("%s: re-marshaled restore error %v, want ErrBadSnapshot", name, err)
			}
		} else if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: re-marshaled decode error %v, want ErrBadSnapshot", name, err)
		}
	}
}

// poolSection returns the offset of an encoded snapshot's first pooled
// row. The pool section ends the payload: u32 count, the packed rows, then
// the u32-counted hit tallies, followed by the 4-byte CRC32 trailer.
func poolSection(blob []byte, rowBytes, nsols int) int {
	return len(blob) - crc32.Size - (4 + 4*nsols) - nsols*rowBytes
}

// TestRestoreRejectsForgedPool: a CRC-valid snapshot whose dedup pool is
// inconsistent must not restore. Each forgery rewrites the pool section of
// a real snapshot and re-seals its CRC, so it decodes cleanly; restore must
// refuse it with ErrBadSnapshot instead of building a session that delivers
// a solution twice or misses a dedup. Restore recomputes every key and
// hash, so a copied row is a repeat whatever the snapshot claimed.
func TestRestoreRejectsForgedPool(t *testing.T) {
	for _, v := range []struct {
		name    string
		formula string
	}{
		{"full", "p cnf 10 5\n1 2 0\n3 4 0\n5 6 0\n7 8 0\n9 10 0\n"},
		{"projected", projFormula},
	} {
		s := newSampler(t, mustFormula(t, v.formula), Config{BatchSize: 64, Seed: 1})
		for i := 0; i < 4; i++ {
			s.ContinuousStep(0)
		}
		blob, err := s.Snapshot().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		n, nsols := s.NumInputs(), s.UniqueCount()
		if n%8 == 0 || nsols < 2 {
			t.Fatalf("%s: fixture has %d inputs and %d solutions; it needs row padding bits and two solutions", v.name, n, nsols)
		}
		rowBytes := (n + 7) / 8
		rows := poolSection(blob, rowBytes, nsols)
		for _, fg := range []struct {
			name  string
			forge func(b []byte)
		}{
			{"row-copied-with-its-hash", func(b []byte) { copy(b[rows:rows+rowBytes], b[rows+rowBytes:rows+2*rowBytes]) }},
			{"row-padding-bit", func(b []byte) { b[rows+rowBytes-1] |= 0x80 }},
		} {
			t.Run(v.name+"/"+fg.name, func(t *testing.T) {
				mut := append([]byte(nil), blob...)
				fg.forge(mut)
				sn, err := DecodeSnapshot(reseal(mut))
				if err != nil {
					t.Fatalf("forged snapshot does not decode: %v", err)
				}
				if _, err := RestoreSampler(s.Problem(), sn, tensor.Sequential()); !errors.Is(err, ErrBadSnapshot) {
					t.Fatalf("restore of a forged pool: err = %v, want ErrBadSnapshot", err)
				}
			})
		}
		sn, err := DecodeSnapshot(blob)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreSampler(s.Problem(), sn, tensor.Sequential()); err != nil {
			t.Fatalf("%s: unforged snapshot: %v", v.name, err)
		}
	}
}

// TestRestoreRejectsNonModelPool: restore re-verifies every pooled row
// against the CNF, so a sealed snapshot whose last pooled row was edited
// into a non-model is refused — otherwise the session would deliver it to
// any caller whose cursor has not passed it. The edit flips one input bit
// at a time until the row stops being a model; a non-model equals no
// pooled row, so the edit makes no repeat.
func TestRestoreRejectsNonModelPool(t *testing.T) {
	for _, v := range []struct {
		name    string
		formula string
		cfg     Config
	}{
		{"full", paperExample, Config{BatchSize: 64, Seed: 1}},
		{"projected", projFormula, Config{BatchSize: 64, Seed: 1}},
	} {
		t.Run(v.name, func(t *testing.T) {
			f := mustFormula(t, v.formula)
			s := newSampler(t, f, v.cfg)
			for i := 0; i < 3; i++ {
				s.ContinuousStep(0)
			}
			blob, err := s.Snapshot().MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			n, nsols := s.NumInputs(), s.UniqueCount()
			if nsols < 1 {
				t.Fatal("session pooled no solution")
			}
			rowBytes := (n + 7) / 8
			last := poolSection(blob, rowBytes, nsols) + (nsols-1)*rowBytes
			row := bitblast.UnpackRow(make([]bool, n), s.inputRow(nsols-1))
			for i := 0; i < n; i++ {
				row[i] = !row[i]
				if !f.Sat(s.FullAssignment(row)) {
					mut := append([]byte(nil), blob...)
					mut[last+i/8] ^= 1 << (i % 8)
					sn, err := DecodeSnapshot(reseal(mut))
					if err != nil {
						t.Fatalf("edited snapshot does not decode: %v", err)
					}
					if _, err := RestoreSampler(s.Problem(), sn, tensor.Sequential()); !errors.Is(err, ErrBadSnapshot) {
						t.Fatalf("restore of a non-model pooled row: err = %v, want ErrBadSnapshot", err)
					}
					return
				}
				row[i] = !row[i]
			}
			t.Fatal("no single-bit flip of the last pooled row makes a non-model")
		})
	}
}

// FuzzDecodeSnapshot fuzzes the GDSS body and seals it with a valid
// CRC-32 inside the target, so mutations reach the field parsers past the
// trailer (FuzzOpen covers the trailer, magic and version checks). Every
// input must either fail with an error wrapping ErrBadSnapshot or decode
// into a snapshot that re-encodes to the input bytes — never panic. A decoded
// snapshot keyed to one of the seed formulas is restored onto that
// Problem on a sequential device: a refusal must wrap ErrBadSnapshot, and
// an accepted restore must snapshot back to the same bytes, hold only
// models of the CNF in its pool, and survive a tick after which every
// solution is still a model. Seeded with real snapshots (plain,
// projected, round loop, the golden fixture) and structured mutations of
// them.
func FuzzDecodeSnapshot(f *testing.F) {
	probs := map[string]*Problem{}
	seed := func(blob []byte) {
		body := blob[:len(blob)-crc32.Size]
		f.Add(body)
		// A truncation and a version bump as structured seeds.
		f.Add(body[:len(body)/2])
		bumped := append([]byte(nil), body...)
		bumped[4] ^= 0xFF
		f.Add(bumped)
	}
	seedFrom := func(formula string, cfg Config, rounds bool, ticks int) {
		cf, err := cnf.ParseDIMACSString(formula)
		if err != nil {
			f.Fatal(err)
		}
		p, err := CompileCNF(cf)
		if err != nil {
			f.Fatal(err)
		}
		probs[p.Key()] = p
		s, err := p.NewSampler(cfg)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < ticks; i++ {
			if rounds {
				s.Round()
			} else {
				s.ContinuousStep(0)
			}
		}
		blob, err := s.Snapshot().MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		seed(blob)
	}
	// Small batches keep the bodies short, so more mutations land on the
	// scheduler and pool fields than on V.
	seedFrom(paperExample, Config{BatchSize: 16, Seed: 1}, false, 6)
	seedFrom(projFormula, Config{BatchSize: 16, Seed: 3}, false, 6)
	seedFrom(paperExample, Config{BatchSize: 16, Seed: 4}, true, 2)
	golden, err := CompileCNF(benchgen.SmallSuite()[0].Formula)
	if err != nil {
		f.Fatal(err)
	}
	probs[golden.Key()] = golden
	fixture, err := os.ReadFile("testdata/gdss_v2.bin")
	if err != nil {
		f.Fatal(err)
	}
	seed(fixture)
	f.Add([]byte{})
	f.Add([]byte("GDSS"))

	f.Fuzz(func(t *testing.T, body []byte) {
		data := binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
		sn, err := DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("decode error does not wrap ErrBadSnapshot: %v", err)
			}
			return
		}
		blob, err := sn.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded snapshot fails to re-encode: %v", err)
		}
		if !bytes.Equal(blob, data) {
			t.Fatal("codec is not canonical: decode→encode changed the bytes")
		}
		p := probs[sn.Key()]
		if p == nil {
			return
		}
		s, err := RestoreSampler(p, sn, tensor.Sequential())
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("restore error does not wrap ErrBadSnapshot: %v", err)
			}
			return
		}
		back := s.Snapshot()
		back.workers = sn.workers // the device is the caller's, not the snapshot's
		again, err := back.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatal("restored session snapshots to different bytes")
		}
		checkModels(t, s, "restored pool")
		s.ContinuousStep(0)
		checkModels(t, s, "after one tick")
	})
}

// checkModels fails t unless every solution s holds satisfies its CNF.
func checkModels(t *testing.T, s *Sampler, when string) {
	t.Helper()
	f := s.Problem().Formula()
	for i := 0; i < s.UniqueCount(); i++ {
		if !f.Sat(s.FullAssignmentAt(i)) {
			t.Fatalf("%s: solution %d of %d is not a model", when, i, s.UniqueCount())
		}
	}
}

// BenchmarkSnapshot measures one full checkpoint+restore cycle — Snapshot,
// MarshalBinary, DecodeSnapshot, RestoreSampler — for a session over an
// s15850a-scale instance mid-sampling toward a server-sized target. The
// acceptance bar is < 10ms per cycle: a checkpoint must be cheap enough to
// take on every drain.
func BenchmarkSnapshot(b *testing.B) {
	inst := benchgen.Iscas("s15850a_mini", 600, 10300, 3, 15832)
	prob, err := CompileCNF(inst.Formula)
	if err != nil {
		b.Fatal(err)
	}
	s, err := prob.NewSampler(Config{BatchSize: 1024, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	// Mid-flight serving session: target-steered (like every satserved
	// request) and interrupted partway to its goal.
	for i := 0; i < 10 && s.UniqueCount() < 1500; i++ {
		s.ContinuousStep(1500)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn := s.Snapshot()
		blob, err := sn.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		dec, err := DecodeSnapshot(blob)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := RestoreSampler(prob, dec, tensor.Sequential()); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(blob)))
	}
}
