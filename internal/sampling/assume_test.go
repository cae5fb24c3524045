package sampling

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/sat"
	"repro/internal/tensor"
)

// satPins returns k assumption literals agreeing with a model of f, pinned
// on the lowest-numbered variables, so the specialized instance is
// satisfiable by construction.
func satPins(t *testing.T, f *cnf.Formula, k int) []cnf.Lit {
	t.Helper()
	s := sat.NewSolver(f, sat.Options{})
	if st := s.Solve(); st != sat.Sat {
		t.Fatalf("base instance not SAT: %v", st)
	}
	model := s.Model()
	if k > f.NumVars {
		k = f.NumVars
	}
	out := make([]cnf.Lit, 0, k)
	for v := 1; v <= k; v++ {
		if model[v-1] {
			out = append(out, cnf.Lit(v))
		} else {
			out = append(out, cnf.Lit(-v))
		}
	}
	return out
}

// TestCompileAssumeTiers: a specialized artifact tiers like a base compile.
// CompileAssume through one compiler leaves durable artifacts for both the
// base and specialized keys; a second compiler over the same directory
// resolves the specialized key via LookupAssume as a pure disk hit (no
// recompile, no re-specialize), and the loaded problem streams the same
// solutions.
func TestCompileAssumeTiers(t *testing.T) {
	f := benchgen.SmallSuite()[0].Formula
	assume := satPins(t, f, 2)
	dir := t.TempDir()

	warm := NewCompiler(4).WithStore(testStore(t, dir))
	spec, err := warm.CompileAssume(f, assume)
	if err != nil {
		t.Fatal(err)
	}
	baseKey := HashFormula(f)
	wantKey := cnf.AssumeKey(baseKey, cnf.CanonicalAssume(assume))
	if spec.Key() != wantKey {
		t.Fatalf("specialized key %s, want %s", spec.Key(), wantKey)
	}
	if fmt.Sprint(spec.Assumptions()) != fmt.Sprint(cnf.CanonicalAssume(assume)) {
		t.Fatalf("problem assumptions %v, want %v", spec.Assumptions(), assume)
	}
	// Same compiler, same pins (unsorted duplicates included): memory hit.
	again, err := warm.CompileAssume(f, append([]cnf.Lit{assume[1]}, assume...))
	if err != nil {
		t.Fatal(err)
	}
	if again != spec {
		t.Fatal("second CompileAssume did not hit the memory cache")
	}

	// Cold replica: the specialized key resolves straight from disk.
	cold := NewCompiler(4).WithStore(testStore(t, dir))
	loaded, ok, err := cold.LookupAssume(baseKey, assume)
	if err != nil || !ok {
		t.Fatalf("cold LookupAssume = (%v, %v), want hit", ok, err)
	}
	if loaded.Key() != wantKey {
		t.Fatal("store round trip changed the specialized key")
	}
	cs := cold.Stats()
	if cs.DiskHits != 1 {
		t.Fatalf("cold replica stats = %+v, want exactly one disk hit", cs)
	}

	// The loaded artifact streams bit-identically to the fresh one.
	for _, workers := range []int{1, 7} {
		dev := tensor.Sequential()
		if workers > 1 {
			dev = tensor.ParallelN(workers)
		}
		var a, b []string
		for i, p := range []*Problem{spec, loaded} {
			sess, err := p.NewSession(SessionConfig{Seed: 13, BatchSize: 128, Device: dev})
			if err != nil {
				t.Fatal(err)
			}
			out := []string{}
			if _, err := sess.Stream(context.Background(), 8, collectSink(&out, -1)); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				a = out
			} else {
				b = out
			}
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("%d workers: loaded stream diverges from fresh", workers)
		}
	}
}

// TestLookupAssumeBaseOnly: when only the base artifact is resident, the
// ?key=&assume= path specializes it on the fly; a missing base key is a
// clean miss, and invalid pins over a resident base report ErrBadAssume
// (the server's 400-vs-404 distinction).
func TestLookupAssumeBaseOnly(t *testing.T) {
	f := benchgen.SmallSuite()[0].Formula
	assume := satPins(t, f, 2)
	c := NewCompiler(4)
	if _, ok, err := c.LookupAssume(HashFormula(f), assume); ok || err != nil {
		t.Fatalf("lookup before compile = (%v, %v), want clean miss", ok, err)
	}
	if _, err := c.Compile(f); err != nil {
		t.Fatal(err)
	}
	p, ok, err := c.LookupAssume(HashFormula(f), assume)
	if err != nil || !ok {
		t.Fatalf("lookup after base compile = (%v, %v), want specialize hit", ok, err)
	}
	if len(p.Assumptions()) != len(assume) {
		t.Fatalf("specialized problem carries %v", p.Assumptions())
	}
	if _, ok := c.Lookup(p.Key()); !ok {
		t.Fatal("specialized problem was not installed in the memory tier")
	}
	if _, _, err := c.LookupAssume(HashFormula(f), []cnf.Lit{cnf.Lit(f.NumVars + 5)}); !errors.Is(err, core.ErrBadAssume) {
		t.Fatalf("out-of-range pins: got %v, want ErrBadAssume", err)
	}
}

// TestLookupAssumeOnSpecializedKey: pins added on top of an already
// specialized key merge into one assumption set, and the write-back files
// the result under its own content key, where a fresh compiler over the
// same store finds it (rather than under a derived key its blob does not
// match, which the next reader would quarantine).
func TestLookupAssumeOnSpecializedKey(t *testing.T) {
	dir := t.TempDir()
	f := benchgen.SmallSuite()[0].Formula
	pins := satPins(t, f, 2)
	c := NewCompiler(4).WithStore(testStore(t, dir))
	first, err := c.CompileAssume(f, pins[:1])
	if err != nil {
		t.Fatal(err)
	}
	p, ok, err := c.LookupAssume(first.Key(), pins[1:])
	if err != nil || !ok {
		t.Fatalf("lookup on a specialized key = (%v, %v), want specialize hit", ok, err)
	}
	if want := cnf.AssumeKey(HashFormula(f), pins); p.Key() != want {
		t.Fatalf("merged problem keyed %s, want %s", p.Key(), want)
	}
	fresh := NewCompiler(4).WithStore(testStore(t, dir))
	if _, ok := fresh.Lookup(p.Key()); !ok {
		t.Fatalf("fresh compiler misses the written-back artifact: %+v", fresh.Stats())
	}
	if st := fresh.StoreStats(); st.Quarantined != 0 {
		t.Fatalf("store quarantined %d entries", st.Quarantined)
	}
}

// TestCompileAssumeRejectsBadPins: validation happens before any cache or
// store work, wrapping core.ErrBadAssume.
func TestCompileAssumeRejectsBadPins(t *testing.T) {
	f := benchgen.SmallSuite()[0].Formula
	c := NewCompiler(4)
	for _, bad := range [][]cnf.Lit{
		{cnf.Lit(f.NumVars + 1)},
		{1, -1},
	} {
		if _, err := c.CompileAssume(f, bad); !errors.Is(err, core.ErrBadAssume) {
			t.Errorf("pins %v: got %v, want ErrBadAssume", bad, err)
		}
	}
}

// TestCheckpointAssumeRoundTrip: the v2 envelope carries the assumption
// set; a cold compiler resumes by re-specializing (via CompileAssume on the
// embedded formula), and the resumed stream concatenates with the prefix to
// the uninterrupted stream.
func TestCheckpointAssumeRoundTrip(t *testing.T) {
	f := benchgen.SmallSuite()[0].Formula
	assume := satPins(t, f, 2)
	spec, err := NewCompiler(4).CompileAssume(f, assume)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SessionConfig{Seed: 17, BatchSize: 128, Device: tensor.Sequential()}

	ref, err := spec.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	if _, err := ref.Stream(context.Background(), 10, collectSink(&want, -1)); err != nil {
		t.Fatal(err)
	}
	if len(want) < 2 {
		t.Fatalf("baseline found only %d solutions", len(want))
	}
	cut := len(want) / 2

	sess, err := spec.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first []string
	if _, err := sess.Stream(context.Background(), len(want), collectSink(&first, cut)); err != nil {
		t.Fatal(err)
	}
	env, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := DecodeCheckpoint(env)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ck.Assumptions()) != fmt.Sprint(cnf.CanonicalAssume(assume)) {
		t.Fatalf("envelope assumptions %v, want %v", ck.Assumptions(), assume)
	}
	if ck.Key() != spec.Key() {
		t.Fatalf("envelope key %.12s, want %.12s", ck.Key(), spec.Key())
	}

	restored, err := NewCompiler(4).Resume(ck, tensor.Device{})
	if err != nil {
		t.Fatal(err)
	}
	got := append([]string{}, first...)
	if _, err := restored.Stream(context.Background(), len(want), collectSink(&got, -1)); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("resumed stream diverges:\n  got  %v\n  want %v", got, want)
	}

}
