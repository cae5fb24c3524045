package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cnf"
)

// randomCNF draws a 2/3-CNF over n variables with n..3n clauses. Each clause
// uses distinct variables (so none is tautological or a unit), and every
// variable occurs in some clause.
func randomCNF(r *rand.Rand, n int) *cnf.Formula {
	for {
		f := cnf.New(n)
		used := make([]bool, n+1)
		for range n + r.Intn(2*n+1) {
			perm := r.Perm(n)[:2+r.Intn(2)]
			cl := make(cnf.Clause, len(perm))
			for i, v := range perm {
				used[v+1] = true
				cl[i] = cnf.Lit(v + 1)
				if r.Intn(2) == 0 {
					cl[i] = -cl[i]
				}
			}
			f.AddClause(cl...)
		}
		all := true
		for v := 1; v <= n; v++ {
			all = all && used[v]
		}
		if all {
			return f
		}
	}
}

// bruteModels enumerates f's models as assignment strings.
func bruteModels(f *cnf.Formula) map[string]bool {
	out := map[string]bool{}
	a := make([]bool, f.NumVars)
	for mask := 0; mask < 1<<f.NumVars; mask++ {
		for i := range a {
			a[i] = mask>>i&1 == 1
		}
		if f.Sat(a) {
			out[fmt.Sprint(a)] = true
		}
	}
	return out
}

// TestStreamReachesEveryModel is the completeness gate: a stream run to
// exhaustion delivers exactly the formula's model set, including the
// values of variables the extracted function does not depend on. The
// corpus is seeded random 2/3-CNFs plus two formulas with such variables:
// one no clause mentions, and one the transformation simplifies away.
// Streams end by the saturation guard; the tick cap only turns a
// non-terminating stream into a failure.
func TestStreamReachesEveryModel(t *testing.T) {
	corpus := []*cnf.Formula{
		mustFormula(t, "p cnf 3 1\n1 2 0\n"),
		mustFormula(t, "p cnf 5 8\n-2 5 0\n-1 2 0\n-2 -5 0\n4 2 0\n4 2 3 0\n-1 -4 5 0\n-3 -1 2 0\n-3 -4 0\n"),
	}
	r := rand.New(rand.NewSource(2024))
	for len(corpus) < 102 {
		if f := randomCNF(r, 5+r.Intn(8)); len(bruteModels(f)) > 0 {
			corpus = append(corpus, f)
		}
	}
	for i, f := range corpus {
		want := bruteModels(f)
		if i == 0 && len(want) != 6 || i == 1 && len(want) != 2 {
			t.Fatalf("formula %d: %d models by brute force", i, len(want))
		}
		p, err := CompileCNF(f)
		if err != nil {
			t.Fatalf("formula %d: %v", i, err)
		}
		s, err := p.NewSampler(Config{BatchSize: 256, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		for tick := 0; !s.Exhausted(); tick++ {
			if tick == 100000 {
				t.Fatalf("formula %d: stream not exhausted after %d ticks", i, tick)
			}
			s.ContinuousStep(0)
		}
		got := map[string]bool{}
		for k := range s.UniqueCount() {
			a := fmt.Sprint(s.FullAssignmentAt(k))
			if !want[a] || got[a] {
				t.Fatalf("formula %d: solution %d %s is not a new model", i, k, a)
			}
			got[a] = true
		}
		if len(got) != len(want) {
			var sb strings.Builder
			f.WriteDIMACS(&sb)
			t.Errorf("formula %d: stream delivered %d of %d models\n%s", i, len(got), len(want), sb.String())
		}
	}
}
