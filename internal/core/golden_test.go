package core

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/cnf"
	"repro/internal/tensor"
)

// The GDSS and GDSP fixtures under testdata/ were written over benchgen's
// or-12-3-small on a sequential device: gdsp_v4.bin is the compiled
// problem (TransformTime zeroed), gdsp_v4_pins.bin the problem specialized
// under pins -1 -2, and gdss_v2.bin a continuous session (batch 64, seed
// 7, projection onto variables 1-8, Elapsed zeroed) cut after 3 ticks.
// gdss.stream holds that session's streamSig after goldenSnapshotRun more
// ticks. gdsp_v1.bin and gdsp_v2.bin are the same two problems in the
// earlier layouts that also stored the engine tape and verify plan, and
// gdsp_v3.bin and gdsp_v3_pins.bin in the layout that also stored a
// clause-provenance table; decode refuses them all. gdss.bin is the same
// session in the version-1 snapshot layout, which also stored the packed
// verifier view, the pool's keys and hashes and two always-zero optimizer
// fields, and gdss_momentum.bin a version-1 session run with momentum 0.5
// and clause weights; decode refuses both.
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

// TestGoldenProblem: the committed current-layout GDSP blobs decode,
// re-encode byte for byte, and stream the same solutions as a fresh
// compile of the same (specialized) problem. The earlier-layout blobs,
// sealed and otherwise intact, fail decode with ErrBadProblem, so the
// store quarantines them and the compiler recompiles.
func TestGoldenProblem(t *testing.T) {
	fresh := goldenInstance(t)
	for _, g := range []struct {
		name    string
		version byte
		assume  []cnf.Lit
	}{
		{"gdsp_v1.bin", 1, nil},
		{"gdsp_v2.bin", 2, []cnf.Lit{-1, -2}},
		{"gdsp_v3.bin", 3, nil},
		{"gdsp_v3_pins.bin", 3, []cnf.Lit{-1, -2}},
		{"gdsp_v4.bin", 4, nil},
		{"gdsp_v4_pins.bin", 4, []cnf.Lit{-1, -2}},
	} {
		t.Run(g.name, func(t *testing.T) {
			blob := readFixture(t, g.name)
			if blob[4] != g.version || blob[5] != 0 {
				t.Fatalf("fixture is version %d, want %d", blob[4], g.version)
			}
			if g.version != ProblemVersion {
				if _, err := DecodeProblem(blob); !errors.Is(err, ErrBadProblem) {
					t.Fatalf("earlier layout: decode error %v, want ErrBadProblem", err)
				}
				return
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
// byte, carries a projection and a running scheduler, and restores onto a
// fresh compile to a session that snapshots back to the same bytes and
// continues exactly the recorded stream. The version-1 blobs, sealed and
// otherwise intact, fail decode with ErrBadSnapshot.
func TestGoldenSnapshot(t *testing.T) {
	blob := readFixture(t, "gdss_v2.bin")
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
	if len(sn.projection) == 0 || !sn.contReady {
		t.Fatal("fixture lacks a projection or a running scheduler")
	}
	s, err := RestoreSampler(goldenInstance(t), sn, tensor.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	if again, err = s.Snapshot().MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("restored fixture re-encodes different bytes")
	}
	for i := 0; i < goldenSnapshotRun; i++ {
		s.ContinuousStep(0)
	}
	want := strings.Fields(string(readFixture(t, "gdss.stream")))
	if got := streamSig(s); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("restored session streams %d solutions, recorded %d, or the streams differ", len(got), len(want))
	}
	for _, old := range []string{"gdss.bin", "gdss_momentum.bin"} {
		if _, err := DecodeSnapshot(readFixture(t, old)); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%s: decode error %v, want ErrBadSnapshot", old, err)
		}
	}
}
