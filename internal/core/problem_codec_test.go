package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/cnf"
	"repro/internal/tensor"
)

// codecProblems returns compiled problems covering the codec's section
// variety: the paper example (plain), a projected formula (projection +
// nodeless projected vars), and the benchgen small suite (or-chains,
// q-chains — window extraction, fallbacks, multi-clause provenance).
func codecProblems(t *testing.T) map[string]*Problem {
	t.Helper()
	out := map[string]*Problem{
		"paper":     mustCompile(t, mustFormula(t, paperExample)),
		"projected": mustCompile(t, mustFormula(t, projFormula)),
	}
	for _, inst := range benchgen.SmallSuite() {
		out[inst.Name] = mustCompile(t, inst.Formula)
	}
	return out
}

func mustCompile(t *testing.T, f *cnf.Formula) *Problem {
	t.Helper()
	p, err := CompileCNF(f)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// problemRoundTrip pushes a problem through the codec, checking it is
// canonical (decode→encode reproduces the bytes), and returns the decoded
// copy.
func problemRoundTrip(t *testing.T, p *Problem) *Problem {
	t.Helper()
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	dec, err := DecodeProblem(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	blob2, err := dec.MarshalBinary()
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("codec is not canonical: decode→encode changed the bytes")
	}
	return dec
}

// TestCompileCNFDeterministic: compiling the same formula twice yields the
// same GDSP bytes once the wall-clock TransformTime is zeroed, so a
// compiled artifact is a function of its CNF alone.
func TestCompileCNFDeterministic(t *testing.T) {
	ins := append(benchgen.SmallSuite(), benchgen.Iscas("cold-0", 120, 1200, 4, 6001))
	for _, inst := range ins {
		var first []byte
		for i := 0; i < 3; i++ {
			p := mustCompile(t, inst.Formula)
			p.Extraction().TransformTime = 0
			blob, err := p.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = blob
			} else if !bytes.Equal(blob, first) {
				t.Fatalf("%s: compile %d encodes different bytes", inst.Name, i)
			}
		}
	}
}

// TestProblemCodecDifferential is the durability invariant behind the
// store tier: a Problem decoded from its GDSP encoding must be
// indistinguishable from the freshly compiled original to the sampling
// runtime — same key, same derived shape, and for a fixed seed the
// byte-identical solution stream (order, witnesses, projected signatures,
// hit tallies) at 1 and 7 workers. Without this, a replica loading a
// peer-compiled artifact from the shared store could serve a different
// stream than the replica that compiled it, breaking resume determinism.
func TestProblemCodecDifferential(t *testing.T) {
	for name, p := range codecProblems(t) {
		t.Run(name, func(t *testing.T) {
			dec := problemRoundTrip(t, p)
			if dec.Key() != p.Key() {
				t.Fatalf("key changed across codec: %s vs %s", abbrev(dec.Key()), abbrev(p.Key()))
			}
			if dec.NumInputs() != p.NumInputs() || dec.Tile() != p.Tile() {
				t.Fatalf("derived shape changed: inputs %d→%d tile %d→%d",
					p.NumInputs(), dec.NumInputs(), p.Tile(), dec.Tile())
			}
			sh := Shape{Workers: 4, Batch: 256, Target: 100, Projection: 3, Momentum: true}
			if got, want := dec.MemoryEstimate(sh), p.MemoryEstimate(sh); got != want {
				t.Fatalf("memory estimate changed: %d vs %d", got, want)
			}
			for _, workers := range []int{1, 7} {
				cfg := Config{BatchSize: 128, Seed: 17}
				if workers > 1 {
					cfg.Device = tensor.ParallelN(workers)
				}
				fresh, err := p.NewSampler(cfg)
				if err != nil {
					t.Fatal(err)
				}
				loaded, err := dec.NewSampler(cfg)
				if err != nil {
					t.Fatalf("decoded problem refuses a sampler: %v", err)
				}
				for i := 0; i < 12; i++ {
					fresh.ContinuousStep(0)
					loaded.ContinuousStep(0)
				}
				want, got := streamSig(fresh), streamSig(loaded)
				if len(want) == 0 {
					t.Fatal("baseline found no solutions; differential exercises nothing")
				}
				if len(got) != len(want) {
					t.Fatalf("%d workers: loaded stream has %d solutions, fresh %d", workers, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%d workers: stream diverges at solution %d:\n  loaded %s\n  fresh  %s", workers, i, got[i], want[i])
					}
				}
				if !statsEqual(loaded.Stats(), fresh.Stats()) {
					t.Fatalf("%d workers: stats diverged:\n  loaded %+v\n  fresh  %+v", workers, loaded.Stats(), fresh.Stats())
				}
			}
		})
	}
}

// TestProblemCodecSnapshotInterop: a snapshot taken against a freshly
// compiled Problem must restore onto the store-loaded copy of that
// Problem (and vice versa) — the exact handoff the sharded fleet performs
// when an adopter replica loads the artifact from disk and resumes a
// dying peer's checkpoint.
func TestProblemCodecSnapshotInterop(t *testing.T) {
	f := mustFormula(t, projFormula)
	p := mustCompile(t, f)
	dec := problemRoundTrip(t, p)

	s, err := p.NewSampler(Config{BatchSize: 128, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.ContinuousStep(0)
	}
	sn := roundTrip(t, s.Snapshot())
	r, err := RestoreSampler(dec, sn)
	if err != nil {
		t.Fatalf("snapshot refuses the store-loaded problem: %v", err)
	}
	for i := 0; i < 10; i++ {
		s.ContinuousStep(0)
		r.ContinuousStep(0)
	}
	want, got := streamSig(s), streamSig(r)
	if len(want) == 0 {
		t.Fatal("no solutions; interop exercises nothing")
	}
	if len(got) != len(want) {
		t.Fatalf("restored-on-loaded stream has %d solutions, original %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stream diverges at solution %d:\n  restored %s\n  original %s", i, got[i], want[i])
		}
	}
}

// TestDecodeProblemRejectsCorruption: every single-byte corruption and
// every truncation of a valid encoding must fail cleanly wrapping
// ErrBadProblem — never panic, never decode. The store trusts this to
// turn torn files into clean misses.
func TestDecodeProblemRejectsCorruption(t *testing.T) {
	p := mustCompile(t, mustFormula(t, projFormula))
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(blob); off++ {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x40
		if _, err := DecodeProblem(mut); err == nil {
			t.Fatalf("flipping byte %d of %d decoded successfully", off, len(blob))
		} else if !errors.Is(err, ErrBadProblem) {
			t.Fatalf("flipping byte %d: error does not wrap ErrBadProblem: %v", off, err)
		}
	}
	for cut := 0; cut < len(blob); cut += 11 {
		if _, err := DecodeProblem(blob[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", cut, len(blob))
		}
	}
	if _, err := DecodeProblem(nil); err == nil {
		t.Fatal("nil input decoded successfully")
	}
}

// TestDecodeProblemRejectsKeyMismatch: a structurally valid blob whose
// embedded key disagrees with its embedded formula must be refused — the
// content-address cross-check that keeps a misfiled store entry from
// serving the wrong problem. The tampered blob gets a freshly valid
// trailer so the failure exercises the semantic check, not the checksum.
func TestDecodeProblemRejectsKeyMismatch(t *testing.T) {
	p := mustCompile(t, mustFormula(t, paperExample))
	q := mustCompile(t, mustFormula(t, projFormula))
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The key is the first str field: u16 length at offset 6, bytes after.
	mut := append([]byte(nil), blob...)
	copy(mut[8:], q.Key())
	mut = resealProblem(mut)
	if _, err := DecodeProblem(mut); err == nil {
		t.Fatal("key/formula mismatch decoded successfully")
	} else if !errors.Is(err, ErrBadProblem) {
		t.Fatalf("error does not wrap ErrBadProblem: %v", err)
	}
}

// FuzzDecodeProblem: arbitrary input must either decode into a problem
// that re-encodes canonically and still matches its content address, or
// fail wrapping ErrBadProblem — and must never panic. Seeded from
// benchgen formulas (the real artifact shapes the store holds) plus
// structured mutations, mirroring FuzzDecodeSnapshot/FuzzDecodeCheckpoint.
func FuzzDecodeProblem(f *testing.F) {
	seed := func(cf *cnf.Formula) {
		p, err := CompileCNF(cf)
		if err != nil {
			f.Fatal(err)
		}
		blob, err := p.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		bumped := append([]byte(nil), blob...)
		bumped[4] ^= 0xFF // version field
		f.Add(bumped)
	}
	for _, inst := range benchgen.SmallSuite() {
		seed(inst.Formula)
	}
	proj, err := cnf.ParseDIMACSString(projFormula)
	if err != nil {
		f.Fatal(err)
	}
	seed(proj)
	f.Add([]byte{})
	f.Add([]byte("GDSP"))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProblem(data)
		if err != nil {
			if !errors.Is(err, ErrBadProblem) {
				t.Fatalf("decode error does not wrap ErrBadProblem: %v", err)
			}
			return
		}
		if p.Formula().ContentHash() != p.Key() {
			t.Fatal("decoded problem violates its content address")
		}
		blob, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded problem fails to re-encode: %v", err)
		}
		p2, err := DecodeProblem(blob)
		if err != nil {
			t.Fatalf("re-encoded problem fails to decode: %v", err)
		}
		blob2, err := p2.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatal("codec is not canonical under fuzzed input")
		}
	})
}

// resealProblem recomputes the SHA-256 trailer over a (possibly tampered)
// body so tests can target semantic validation past the checksum.
func resealProblem(blob []byte) []byte {
	body := blob[:len(blob)-sha256.Size]
	sum := sha256.Sum256(body)
	return append(append([]byte(nil), body...), sum[:]...)
}

// BenchmarkProblemCodec measures decode against cold compile on an
// s15850a-scale instance — the store tier's reason to exist is that the
// left column is a small fraction of the right.
func BenchmarkProblemCodec(b *testing.B) {
	inst := benchgen.Iscas("s15850a_mini", 600, 10300, 3, 15832)
	p, err := CompileCNF(inst.Formula)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := p.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeProblem(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := CompileCNF(inst.Formula); err != nil {
				b.Fatal(err)
			}
		}
	})
}
