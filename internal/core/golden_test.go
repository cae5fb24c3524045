package core

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/cnf"
	"repro/internal/tensor"
)

// The GDSS and GDSP fixtures under testdata/ were written over benchgen's
// or-12-3-small on a sequential device: gdsp_v1.bin is the compiled
// problem, gdsp_v2.bin the problem specialized under pins -1 -2, and
// gdss.bin a continuous session (batch 64, seed 7, momentum 0.5,
// projection onto variables 1-8, clause weights 1/1.5/2 repeating) cut
// after 3 ticks. gdss.stream holds that session's streamSig after
// goldenSnapshotRun more ticks.
const goldenSnapshotRun = 6

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// goldenInstance compiles the fixtures' formula afresh.
func goldenInstance(t *testing.T) *Problem {
	t.Helper()
	inst := benchgen.SmallSuite()[0]
	if inst.Name != "or-12-3-small" {
		t.Fatalf("SmallSuite()[0] is %s, want or-12-3-small", inst.Name)
	}
	return mustCompile(t, inst.Formula)
}

// TestGoldenProblem: the committed GDSP blobs decode, re-encode byte for
// byte, and stream the same solutions as a fresh compile of the same
// (specialized) problem.
func TestGoldenProblem(t *testing.T) {
	fresh := goldenInstance(t)
	for _, g := range []struct {
		name    string
		version byte
		assume  []cnf.Lit
	}{
		{"gdsp_v1.bin", 1, nil},
		{"gdsp_v2.bin", 2, []cnf.Lit{-1, -2}},
	} {
		t.Run(g.name, func(t *testing.T) {
			blob := readFixture(t, g.name)
			if blob[4] != g.version || blob[5] != 0 {
				t.Fatalf("fixture is version %d, want %d", blob[4], g.version)
			}
			dec, err := DecodeProblem(blob)
			if err != nil {
				t.Fatal(err)
			}
			again, err := dec.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, blob) {
				t.Fatal("decoded fixture re-encodes different bytes")
			}
			want := fresh
			if g.assume != nil {
				if want, err = Specialize(fresh, g.assume); err != nil {
					t.Fatal(err)
				}
			}
			if dec.Key() != want.Key() {
				t.Fatalf("fixture key %s, fresh compile %s", abbrev(dec.Key()), abbrev(want.Key()))
			}
			cfg := Config{BatchSize: 64, Seed: 3, Device: tensor.Sequential()}
			a, err := dec.NewSampler(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := want.NewSampler(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				a.ContinuousStep(0)
				b.ContinuousStep(0)
			}
			if got, exp := streamSig(a), streamSig(b); strings.Join(got, "\n") != strings.Join(exp, "\n") || len(got) == 0 {
				t.Fatalf("fixture streams %d solutions, fresh compile %d, or the streams differ", len(got), len(exp))
			}
		})
	}
}

// TestGoldenSnapshot: the committed GDSS blob decodes, re-encodes byte for
// byte, carries every optional section, and restores onto a fresh compile
// to continue exactly the recorded stream.
func TestGoldenSnapshot(t *testing.T) {
	blob := readFixture(t, "gdss.bin")
	sn, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sn.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("decoded fixture re-encodes different bytes")
	}
	if !sn.Momentum() || sn.ProjectionWidth() == 0 || len(sn.clauseWeights) == 0 || !sn.contReady {
		t.Fatal("fixture lacks a momentum, projection, clause-weight or scheduler section")
	}
	s, err := RestoreSampler(goldenInstance(t), sn)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < goldenSnapshotRun; i++ {
		s.ContinuousStep(0)
	}
	want := strings.Fields(string(readFixture(t, "gdss.stream")))
	if got := streamSig(s); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("restored session streams %d solutions, recorded %d, or the streams differ", len(got), len(want))
	}
}
