package core

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/cnf"
	"repro/internal/sat"
	"repro/internal/tensor"
)

// pinFromModel picks k assumption literals agreeing with a model of f, so
// the specialized instance is satisfiable by construction. Variables are
// taken from the extraction's primary inputs (the pins that narrow the
// engine), falling back to 1..k when fewer PIs exist.
func pinFromModel(t testing.TB, p *Problem, k int) []cnf.Lit {
	t.Helper()
	s := sat.NewSolver(p.Formula(), sat.Options{})
	if st := s.Solve(); st != sat.Sat {
		t.Fatalf("base instance not SAT: %v", st)
	}
	model := s.Model()
	vars := p.Extraction().PrimaryInputs
	if len(vars) == 0 {
		t.Fatal("no primary inputs to pin")
	}
	if k > len(vars) {
		k = len(vars)
	}
	out := make([]cnf.Lit, 0, k)
	for _, v := range vars[:k] {
		if model[v-1] {
			out = append(out, cnf.Lit(v))
		} else {
			out = append(out, cnf.Lit(-v))
		}
	}
	return out
}

// exhaustSet runs the sampler until its saturation guard trips and returns
// the sorted set of full CNF assignments found.
func exhaustSet(t *testing.T, s *Sampler) []string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !s.Exhausted() && time.Now().Before(deadline) {
		s.SampleUntil(s.UniqueCount()+256, time.Second)
	}
	if !s.Exhausted() {
		t.Fatal("sampler did not exhaust in time")
	}
	out := make([]string, s.UniqueCount())
	for i := range out {
		out[i] = fmt.Sprint(s.FullAssignmentAt(i))
	}
	sort.Strings(out)
	return out
}

// TestSpecializeMatchesConditioned is the conditioning differential: the
// specialized problem must sample exactly the models of the hand-
// conditioned CNF. Run on tiny exhaustible instances, projected included.
func TestSpecializeMatchesConditioned(t *testing.T) {
	for _, in := range benchgen.QualitySuite() {
		in := in
		t.Run(in.Name, func(t *testing.T) {
			base, err := CompileCNF(in.Formula)
			if err != nil {
				t.Fatal(err)
			}
			assume := pinFromModel(t, base, 2)
			spec, err := Specialize(base, assume)
			if err != nil {
				t.Fatal(err)
			}
			if want := cnf.AssumeKey(in.Formula.ContentHash(), assume); spec.Key() != want {
				t.Fatalf("specialized key %s, want %s", spec.Key(), want)
			}
			cond, err := in.Formula.Condition(assume)
			if err != nil {
				t.Fatal(err)
			}
			condProb, err := CompileCNF(cond)
			if err != nil {
				t.Fatal(err)
			}

			cfg := Config{BatchSize: 256, Seed: 7}
			ss, err := spec.NewSampler(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := condProb.NewSampler(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := exhaustSet(t, ss)
			want := exhaustSet(t, cs)
			if len(got) != len(want) {
				t.Fatalf("specialized found %d solutions, conditioned CNF found %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("solution sets diverge at %d:\n  spec %s\n  cond %s", i, got[i], want[i])
				}
			}
			// Every specialized solution satisfies the original formula and
			// the pins.
			for i := 0; i < ss.UniqueCount(); i++ {
				a := ss.FullAssignmentAt(i)
				if !in.Formula.Sat(a) {
					t.Fatalf("solution %d does not satisfy the base formula", i)
				}
				for _, l := range assume {
					if !l.Sat(a[l.Var()-1]) {
						t.Fatalf("solution %d violates assumption %d", i, l)
					}
				}
			}
		})
	}
}

// TestSpecializeStreamIdentityAcrossWorkers: a specialized problem keeps
// the scheduler's bit-identity contract — the solution stream is the same
// sequence at 1 and 7 workers.
func TestSpecializeStreamIdentityAcrossWorkers(t *testing.T) {
	in := benchgen.SmallSuite()[0]
	base, err := CompileCNF(in.Formula)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Specialize(base, pinFromModel(t, base, 3))
	if err != nil {
		t.Fatal(err)
	}
	var streams [][]string
	for _, workers := range []int{1, 7} {
		s, err := spec.NewSampler(Config{BatchSize: 512, Seed: 11, Device: tensor.ParallelN(workers)})
		if err != nil {
			t.Fatal(err)
		}
		s.SampleUntil(32, 20*time.Second)
		seq := make([]string, s.UniqueCount())
		for i := range seq {
			seq[i] = fmt.Sprint(s.FullAssignmentAt(i))
		}
		streams = append(streams, seq)
	}
	if len(streams[0]) == 0 {
		t.Fatal("no solutions at 1 worker")
	}
	if len(streams[0]) != len(streams[1]) {
		t.Fatalf("stream lengths differ: %d vs %d", len(streams[0]), len(streams[1]))
	}
	for i := range streams[0] {
		if streams[0][i] != streams[1][i] {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

// TestSpecializeMerge: specializing in two steps equals one step with the
// union — same key, same assumption set; re-pinning is a no-op.
func TestSpecializeMerge(t *testing.T) {
	in := benchgen.SmallSuite()[0]
	base, err := CompileCNF(in.Formula)
	if err != nil {
		t.Fatal(err)
	}
	pins := pinFromModel(t, base, 3)
	oneShot, err := Specialize(base, pins)
	if err != nil {
		t.Fatal(err)
	}
	step1, err := Specialize(base, pins[:1])
	if err != nil {
		t.Fatal(err)
	}
	step2, err := Specialize(step1, pins[1:])
	if err != nil {
		t.Fatal(err)
	}
	if step2.Key() != oneShot.Key() {
		t.Fatalf("merged key %s, one-shot key %s", step2.Key(), oneShot.Key())
	}
	again, err := Specialize(oneShot, pins)
	if err != nil {
		t.Fatal(err)
	}
	if again != oneShot {
		t.Fatal("re-pinning the same literals should return the same problem")
	}
}

// TestSpecializeErrors covers the rejection paths.
func TestSpecializeErrors(t *testing.T) {
	in := benchgen.SmallSuite()[0]
	base, err := CompileCNF(in.Formula)
	if err != nil {
		t.Fatal(err)
	}
	nv := in.Formula.NumVars
	for _, tc := range []struct {
		name   string
		assume []cnf.Lit
	}{
		{"out-of-range", []cnf.Lit{cnf.Lit(nv + 1)}},
		{"zero", []cnf.Lit{0}},
		{"contradictory", []cnf.Lit{1, -1}},
	} {
		if _, err := Specialize(base, tc.assume); !errors.Is(err, ErrBadAssume) {
			t.Errorf("%s: got %v, want ErrBadAssume", tc.name, err)
		}
	}
	// Pinning every primary input leaves nothing to sample.
	var all []cnf.Lit
	for _, v := range base.Extraction().PrimaryInputs {
		all = append(all, cnf.Lit(v))
	}
	onlyPI := true
	for _, id := range base.Extraction().Circuit.Inputs {
		if v := base.Extraction().Circuit.Nodes[id].Var; v > 0 {
			found := false
			for _, l := range all {
				if l.Var() == v {
					found = true
				}
			}
			if !found {
				onlyPI = false
			}
		}
	}
	if onlyPI {
		if _, err := Specialize(base, all); !errors.Is(err, ErrBadAssume) {
			t.Errorf("pin-all: got %v, want ErrBadAssume", err)
		}
	}
}

// TestSpecializeUnsat: pins that empty a clause produce a verifier that
// accepts nothing (UNSAT under assumptions), not an error.
func TestSpecializeUnsat(t *testing.T) {
	f := cnf.New(5)
	f.AddClause(1, 3) // empties under pins ¬1, ¬3
	f.AddClause(4, 5) // keeps free inputs so specialization itself succeeds
	base, err := CompileCNF(f)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Specialize(base, []cnf.Lit{-1, -3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec.NewSampler(Config{BatchSize: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := s.SampleUntil(1, 2*time.Second)
	if st.Unique != 0 {
		t.Fatalf("unsat specialization produced %d solutions", st.Unique)
	}
}

// TestSpecializeCodecRoundTrip: a specialized problem is a first-class
// GDSP artifact — encode/decode preserves the key, the assumption set,
// and the solution stream.
func TestSpecializeCodecRoundTrip(t *testing.T) {
	in := benchgen.SmallSuite()[1]
	base, err := CompileCNF(in.Formula)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Specialize(base, pinFromModel(t, base, 2))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := spec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeProblem(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key() != spec.Key() {
		t.Fatalf("decoded key %s, want %s", got.Key(), spec.Key())
	}
	if fmt.Sprint(got.Assumptions()) != fmt.Sprint(spec.Assumptions()) {
		t.Fatalf("decoded assumptions %v, want %v", got.Assumptions(), spec.Assumptions())
	}
	for _, p := range []*Problem{spec, got} {
		s, err := p.NewSampler(Config{BatchSize: 256, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		s.SampleUntil(8, 10*time.Second)
		if s.UniqueCount() == 0 {
			t.Fatal("no solutions")
		}
	}
	a, _ := spec.NewSampler(Config{BatchSize: 256, Seed: 5})
	b, _ := got.NewSampler(Config{BatchSize: 256, Seed: 5})
	a.SampleUntil(8, 10*time.Second)
	b.SampleUntil(8, 10*time.Second)
	if a.UniqueCount() != b.UniqueCount() {
		t.Fatalf("stream lengths differ: %d vs %d", a.UniqueCount(), b.UniqueCount())
	}
	for i := 0; i < a.UniqueCount(); i++ {
		if fmt.Sprint(a.FullAssignmentAt(i)) != fmt.Sprint(b.FullAssignmentAt(i)) {
			t.Fatalf("decoded stream diverges at %d", i)
		}
	}
}

// BenchmarkSpecialize measures re-specializing an s15850a-scale compiled
// problem on three pins — the cost the assume experiment sets against a
// cold compile of the same formula.
func BenchmarkSpecialize(b *testing.B) {
	inst := benchgen.Iscas("s15850a_mini", 600, 10300, 3, 15832)
	p, err := CompileCNF(inst.Formula)
	if err != nil {
		b.Fatal(err)
	}
	pins := pinFromModel(b, p, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Specialize(p, pins); err != nil {
			b.Fatal(err)
		}
	}
}
