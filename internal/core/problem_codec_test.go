package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"slices"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/extract"
	"repro/internal/tensor"
)

// aliasFormula defines x2 as the bare literal x1, so extraction maps both
// variables to x1's input node.
const aliasFormula = "p cnf 3 3\n-2 1 0\n2 -1 0\n2 3 0\n"

// codecProblems returns compiled problems covering the codec's section
// variety: the paper example (plain), a projected formula (projection
// section), a bare-literal definition (two variables on one node), and
// the benchgen small suite (or-chains, q-chains — window extraction and
// fallbacks).
func codecProblems(t *testing.T) map[string]*Problem {
	t.Helper()
	out := map[string]*Problem{
		"paper":     mustCompile(t, mustFormula(t, paperExample)),
		"projected": mustCompile(t, mustFormula(t, projFormula)),
		"alias":     mustCompile(t, mustFormula(t, aliasFormula)),
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

// sameCircuit fails t unless got equals want node for node — type,
// constant value, variable, name and fanin — with the same inputs and
// outputs.
func sameCircuit(t *testing.T, got, want *circuit.Circuit) {
	t.Helper()
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("circuit has %d nodes, want %d", len(got.Nodes), len(want.Nodes))
	}
	for i, g := range got.Nodes {
		w := want.Nodes[i]
		if g.Type != w.Type || g.Val != w.Val || g.Var != w.Var || g.Name != w.Name || !slices.Equal(g.Fanin, w.Fanin) {
			t.Fatalf("node %d is %v val=%t var=%d name=%q fanin=%v, want %v val=%t var=%d name=%q fanin=%v",
				i, g.Type, g.Val, g.Var, g.Name, g.Fanin, w.Type, w.Val, w.Var, w.Name, w.Fanin)
		}
	}
	if !slices.Equal(got.Inputs, want.Inputs) || !slices.Equal(got.Outputs, want.Outputs) {
		t.Fatalf("inputs %v outputs %v, want %v and %v", got.Inputs, got.Outputs, want.Inputs, want.Outputs)
	}
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
// runtime — same key, the same circuit node for node, same derived shape,
// and for a fixed seed the byte-identical solution stream (order,
// witnesses, projected signatures, hit tallies) at 1 and 7 workers. Without this, a replica loading a
// peer-compiled artifact from the shared store could serve a different
// stream than the replica that compiled it, breaking resume determinism.
func TestProblemCodecDifferential(t *testing.T) {
	for name, p := range codecProblems(t) {
		t.Run(name, func(t *testing.T) {
			dec := problemRoundTrip(t, p)
			if dec.Key() != p.Key() {
				t.Fatalf("key changed across codec: %s vs %s", abbrev(dec.Key()), abbrev(p.Key()))
			}
			sameCircuit(t, dec.Extraction().Circuit, p.Extraction().Circuit)
			if dec.NumInputs() != p.NumInputs() || dec.Tile() != p.Tile() {
				t.Fatalf("derived shape changed: inputs %d→%d tile %d→%d",
					p.NumInputs(), dec.NumInputs(), p.Tile(), dec.Tile())
			}
			sh := Shape{Workers: 4, Batch: 256, Target: 100, Projection: 3}
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
	r, err := RestoreSampler(dec, sn, tensor.Sequential())
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
	mut = sealProblem(mut[:len(mut)-sha256.Size])
	if _, err := DecodeProblem(mut); err == nil {
		t.Fatal("key/formula mismatch decoded successfully")
	} else if !errors.Is(err, ErrBadProblem) {
		t.Fatalf("error does not wrap ErrBadProblem: %v", err)
	}
}

// TestDecodeProblemRejectsIncompleteNodeMap: a sealed blob whose node map
// misses a variable — the shape of an artifact compiled while variables
// the function does not depend on went without a node — is refused, so
// the compiler quarantines it and recompiles instead of serving a stream
// that holds that variable fixed.
func TestDecodeProblemRejectsIncompleteNodeMap(t *testing.T) {
	p := mustCompile(t, mustFormula(t, paperExample))
	blob := forgedBlob(t, p, func(ext *extract.Result) { ext.NodeOf = ext.NodeOf[:p.formula.NumVars-1] })
	if _, err := DecodeProblem(blob); err == nil {
		t.Fatal("node map missing a variable decoded successfully")
	} else if !errors.Is(err, ErrBadProblem) {
		t.Fatalf("error does not wrap ErrBadProblem: %v", err)
	}
}

// forgedBlob encodes p with its extraction replaced by edit's copy (the
// circuit's nodes and NodeOf are cloned, so edit may change them) and a
// freshly valid seal: the key still matches the formula, so decode
// reaches everything past the content-address check.
func forgedBlob(t *testing.T, p *Problem, edit func(ext *extract.Result)) []byte {
	t.Helper()
	c := *p.ext.Circuit
	c.Nodes = slices.Clone(c.Nodes)
	ext := *p.ext
	ext.Circuit = &c
	ext.NodeOf = slices.Clone(ext.NodeOf)
	edit(&ext)
	q := *p
	q.ext = &ext
	blob, err := q.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestDecodeProblemRejectsNoInputs: a circuit with no primary inputs is
// refused, as Compile refuses one — a session over it has nothing to
// sample.
func TestDecodeProblemRejectsNoInputs(t *testing.T) {
	p := mustCompile(t, mustFormula(t, paperExample))
	blob := forgedBlob(t, p, func(ext *extract.Result) {
		c := ext.Circuit
		for _, id := range c.Inputs {
			c.Nodes[id].Type = circuit.Const
		}
		c.Inputs = nil
	})
	if _, err := DecodeProblem(blob); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("circuit without inputs: decode error %v, want ErrBadProblem", err)
	}
}

// TestDecodedProblemVerifiesAgainstItsFormula: a sealed blob whose node
// map swaps two primary inputs no longer describes its formula, yet it is
// structurally sound and decodes. Its sessions must still return only
// models of the embedded formula: decode compiles the verifier from that
// CNF over the decoded node map, not from anything the writer supplied.
func TestDecodedProblemVerifiesAgainstItsFormula(t *testing.T) {
	f := mustFormula(t, paperExample)
	blob := forgedBlob(t, mustCompile(t, f), func(ext *extract.Result) {
		a, b := ext.PrimaryInputs[0], ext.PrimaryInputs[1]
		ext.NodeOf[a-1], ext.NodeOf[b-1] = ext.NodeOf[b-1], ext.NodeOf[a-1]
	})
	dec, err := DecodeProblem(blob)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dec.NewSampler(Config{BatchSize: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.ContinuousStep(0)
	}
	if s.UniqueCount() == 0 {
		t.Fatal("no solutions; the check exercises nothing")
	}
	for i := 0; i < s.UniqueCount(); i++ {
		if !f.Sat(s.FullAssignmentAt(i)) {
			t.Fatalf("solution %d of %d is not a model of the formula", i, s.UniqueCount())
		}
	}
}

// TestDecodedForgedGateIsSwept: the verifier drops the clauses the circuit
// proves, so a circuit that lies must not prove its lie away. A sealed
// blob whose circuit computes OR where extraction built AND (inside the
// mux that defines variable 5 of the paper's example) decodes; the
// clauses that mux no longer satisfies land in the residual set, so the
// swept plan grows (its exact-size slab prices it), and every row a
// session delivers is still a model of the formula.
func TestDecodedForgedGateIsSwept(t *testing.T) {
	f := mustFormula(t, paperExample)
	p := mustCompile(t, f)
	forged := -1
	blob := forgedBlob(t, p, func(ext *extract.Result) {
		for id, nd := range ext.Circuit.Nodes {
			if nd.Type == circuit.Or && nd.Var == 0 {
				ext.Circuit.Nodes[id].Type = circuit.And
				forged = id
				return
			}
		}
	})
	if forged < 0 {
		t.Fatal("no OR gate to forge")
	}
	dec, err := DecodeProblem(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got, honest := dec.verify.Bytes(), p.verify.Bytes(); got <= honest {
		t.Fatalf("forged node %d: the swept plan holds %d B, the honest circuit's %d B", forged, got, honest)
	}
	s, err := dec.NewSampler(Config{BatchSize: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.ContinuousStep(0)
	}
	if s.UniqueCount() == 0 {
		t.Fatal("no solutions; the check exercises nothing")
	}
	for i := 0; i < s.UniqueCount(); i++ {
		if !f.Sat(s.FullAssignmentAt(i)) {
			t.Fatalf("solution %d of %d is not a model of the formula", i, s.UniqueCount())
		}
	}
}

// FuzzDecodeProblem: an arbitrary GDSP body, sealed with a valid SHA-256
// trailer inside the target, must either decode into a problem that still
// matches its content address, runs a sampler tick over the engine and
// verifier decode compiled from the fuzzed circuit, and re-encodes
// canonically, or fail wrapping ErrBadProblem — and must never panic.
// Sealing in the target is what lets mutations of the circuit and
// extraction sections reach decode, bitblast.New and the tick: a mutated
// sealed blob would fail its trailer check first. FuzzOpen covers the
// trailer, magic and version checks. Seeds are the committed GDSP
// fixtures and benchgen compiles (the artifact shapes the store holds),
// minus their trailers, plus structured mutations.
func FuzzDecodeProblem(f *testing.F) {
	seed := func(blob []byte) {
		body := blob[:len(blob)-sha256.Size]
		f.Add(body)
		f.Add(body[:len(body)/2])
		bumped := append([]byte(nil), body...)
		bumped[4] ^= 0xFF // version field
		f.Add(bumped)
	}
	for _, name := range []string{"gdsp_v4.bin", "gdsp_v4_pins.bin"} {
		blob, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		seed(blob)
	}
	proj, err := cnf.ParseDIMACSString(projFormula)
	if err != nil {
		f.Fatal(err)
	}
	formulas := []*cnf.Formula{proj}
	for _, inst := range benchgen.SmallSuite()[1:] { // [0] is the fixtures' formula
		formulas = append(formulas, inst.Formula)
	}
	for _, cf := range formulas {
		p, err := CompileCNF(cf)
		if err != nil {
			f.Fatal(err)
		}
		blob, err := p.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		seed(blob)
	}
	f.Add([]byte{})
	f.Add([]byte("GDSP"))

	f.Fuzz(func(t *testing.T, body []byte) {
		p, err := DecodeProblem(sealProblem(body))
		if err != nil {
			if !errors.Is(err, ErrBadProblem) {
				t.Fatalf("decode error does not wrap ErrBadProblem: %v", err)
			}
			return
		}
		if cnf.AssumeKey(p.Formula().ContentHash(), p.Assumptions()) != p.Key() {
			t.Fatal("decoded problem violates its content address")
		}
		s, err := p.NewSampler(Config{BatchSize: 64, Iterations: 2, Seed: 1, Device: tensor.Sequential()})
		if err != nil {
			t.Fatalf("decoded problem refuses a sampler: %v", err)
		}
		s.ContinuousStep(0)
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

// sealProblem appends a valid SHA-256 trailer to a GDSP body, so tests
// reach the semantic validation past the checksum.
func sealProblem(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(append([]byte(nil), body...), sum[:]...)
}

// BenchmarkProblemCodec measures decode against cold compile on an
// s15850a-scale instance — the store tier's reason to exist is that the
// left column is a small fraction of the right — and decode alone on a
// serve-cold-shaped instance.
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
	// A serve-cold-shaped request's store-warm load: decode sits on its
	// request path.
	cold, err := CompileCNF(benchgen.Iscas("cold-0", 120, 1200, 4, 6001).Formula)
	if err != nil {
		b.Fatal(err)
	}
	coldBlob, err := cold.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode-cold", func(b *testing.B) {
		b.SetBytes(int64(len(coldBlob)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeProblem(coldBlob); err != nil {
				b.Fatal(err)
			}
		}
	})
}
