package baselines

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/sampling"
	"repro/internal/sat"
	"repro/internal/tensor"
)

func mustParse(t *testing.T, s string) *cnf.Formula {
	t.Helper()
	f, err := cnf.ParseDIMACSString(s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func bitsKey(b []bool) string {
	out := make([]byte, len(b))
	for i, v := range b {
		if v {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}

// or3: x1 ∨ x2 ∨ x3 — 7 models.
const or3 = "p cnf 3 1\n1 2 3 0\n"

// andGate: Tseitin AND with output forced 1 — exactly 1 model.
const andGate = "p cnf 3 4\n3 -1 -2 0\n-3 1 0\n-3 2 0\n3 0\n"

const unsat = "p cnf 1 2\n1 0\n-1 0\n"

func checkSampler(t *testing.T, name string, mk func(*cnf.Formula) sampling.Sampler) {
	t.Helper()
	t.Run(name+"/finds-all-or3", func(t *testing.T) {
		f := mustParse(t, or3)
		s := mk(f)
		st := sampling.SampleUntil(s, 7, 10*time.Second)
		if st.Unique != 7 {
			t.Errorf("unique = %d want 7", st.Unique)
		}
		seen := map[string]bool{}
		for _, m := range s.Solutions() {
			if !f.Sat(m) {
				t.Errorf("invalid model %v", m)
			}
			k := bitsKey(m)
			if seen[k] {
				t.Errorf("duplicate model %v", m)
			}
			seen[k] = true
		}
	})
	t.Run(name+"/single-model", func(t *testing.T) {
		f := mustParse(t, andGate)
		s := mk(f)
		st := sampling.SampleUntil(s, 5, 10*time.Second)
		if st.Unique != 1 {
			t.Errorf("unique = %d want 1", st.Unique)
		}
	})
	t.Run(name+"/unsat", func(t *testing.T) {
		f := mustParse(t, unsat)
		s := mk(f)
		st := sampling.SampleUntil(s, 3, 5*time.Second)
		if st.Unique != 0 {
			t.Errorf("unique = %d want 0 on unsat", st.Unique)
		}
	})
	t.Run(name+"/stats", func(t *testing.T) {
		f := mustParse(t, or3)
		s := mk(f)
		st := sampling.SampleUntil(s, 3, 10*time.Second)
		if st.Calls == 0 {
			t.Error("no calls recorded")
		}
		if st.Elapsed <= 0 {
			t.Error("no elapsed time recorded")
		}
		if st.Unique >= 3 && st.Throughput() <= 0 {
			t.Error("throughput not positive")
		}
	})
}

func TestCMSGenLike(t *testing.T) {
	checkSampler(t, "cmsgen", func(f *cnf.Formula) sampling.Sampler { return NewCMSGenLike(f, 1) })
}

func TestUniGenLike(t *testing.T) {
	checkSampler(t, "unigen", func(f *cnf.Formula) sampling.Sampler { return NewUniGenLike(f, 1) })
}

func TestDiffSampler(t *testing.T) {
	checkSampler(t, "diffsampler", func(f *cnf.Formula) sampling.Sampler {
		d := NewDiffSampler(f, 1, tensor.Sequential())
		d.BatchSize = 64
		return d
	})
}

func TestSamplerNames(t *testing.T) {
	f := mustParse(t, or3)
	if NewCMSGenLike(f, 0).Name() != "cmsgen-like" {
		t.Error("cmsgen name")
	}
	if NewUniGenLike(f, 0).Name() != "unigen3-like" {
		t.Error("unigen name")
	}
	if NewDiffSampler(f, 0, tensor.Sequential()).Name() != "diffsampler" {
		t.Error("diffsampler name")
	}
}

// TestSamplersOnRandomSatInstances: every sampler returns only valid,
// distinct models on random satisfiable formulas.
func TestSamplersOnRandomSatInstances(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		nv := 4 + r.Intn(5)
		f := cnf.New(nv)
		// Build a satisfiable instance: pick a hidden model and only emit
		// clauses it satisfies.
		hidden := make([]bool, nv)
		for i := range hidden {
			hidden[i] = r.Intn(2) == 0
		}
		for i := 0; i < 3*nv; i++ {
			k := 1 + r.Intn(3)
			c := make([]cnf.Lit, 0, k)
			for len(c) < k {
				v := 1 + r.Intn(nv)
				l := cnf.Lit(v)
				if r.Intn(2) == 0 {
					l = -l
				}
				c = append(c, l)
			}
			sat := false
			for _, l := range c {
				if l.Sat(hidden[l.Var()-1]) {
					sat = true
				}
			}
			if !sat {
				c[0] = -c[0] // flip one literal toward the hidden model
				if !c[0].Sat(hidden[c[0].Var()-1]) {
					c[0] = -c[0]
					c = append(c[:0], cnf.Lit(1))
					if !hidden[0] {
						c[0] = -c[0]
					}
				}
			}
			f.AddClause(c...)
		}
		samplers := []sampling.Sampler{
			NewCMSGenLike(f, int64(trial)),
			NewUniGenLike(f, int64(trial)),
			func() sampling.Sampler {
				d := NewDiffSampler(f, int64(trial), tensor.Sequential())
				d.BatchSize = 64
				return d
			}(),
		}
		for _, s := range samplers {
			st := sampling.SampleUntil(s, 5, 10*time.Second)
			if st.Unique == 0 {
				t.Errorf("trial %d: %s found nothing on a satisfiable instance", trial, s.Name())
			}
			for _, m := range s.Solutions() {
				if !f.Sat(m) {
					t.Errorf("trial %d: %s produced an invalid model", trial, s.Name())
				}
			}
		}
	}
}

// TestUniGenUniformitySmoke: on a symmetric instance, hashing-based
// sampling should cover a large fraction of the space without heavy bias.
func TestUniGenUniformitySmoke(t *testing.T) {
	// 4 free variables, one clause excluding all-false: 15 models.
	f := mustParse(t, "p cnf 4 1\n1 2 3 4 0\n")
	u := NewUniGenLike(f, 99)
	st := sampling.SampleUntil(u, 15, 20*time.Second)
	if st.Unique < 12 {
		t.Errorf("unigen-like covered only %d/15 models", st.Unique)
	}
}

func TestCMSGenDiversity(t *testing.T) {
	// Random polarity must reach many distinct models quickly on a formula
	// with a huge solution space.
	f := mustParse(t, "p cnf 8 1\n1 2 0\n")
	c := NewCMSGenLike(f, 7)
	st := sampling.SampleUntil(c, 40, 20*time.Second)
	if st.Unique < 20 {
		t.Errorf("cmsgen-like found only %d models", st.Unique)
	}
}

func TestRandomXorHalvesSpace(t *testing.T) {
	// A non-empty XOR hash keeps exactly half of the 8 free assignments of
	// 3 unconstrained variables.
	f := cnf.New(3) // no clauses: 8 models
	u := NewUniGenLike(f, 5)
	vars, rhs := u.randomXor()
	if len(vars) == 0 {
		t.Skip("empty subset drawn; seed-specific")
	}
	s := sat.NewSolver(f, sat.Options{})
	if !s.AddXor(vars, rhs) {
		t.Fatal("AddXor rejected a satisfiable hash")
	}
	count := 0
	for s.Solve() == sat.Sat {
		count++
		m := s.Model()
		block := make([]cnf.Lit, 3)
		for v := 1; v <= 3; v++ {
			if m[v-1] {
				block[v-1] = cnf.Lit(-v)
			} else {
				block[v-1] = cnf.Lit(v)
			}
		}
		if !s.AddClause(block...) {
			break
		}
	}
	if count != 4 {
		t.Errorf("hashed model count = %d want 4", count)
	}
}

func TestPoolRejectsInvalidAndDuplicates(t *testing.T) {
	f := mustParse(t, "p cnf 2 1\n1 2 0\n")
	p := newPool(f)
	if p.add([]bool{false, false}) {
		t.Error("pool accepted a non-model")
	}
	if !p.add([]bool{true, false}) {
		t.Error("pool rejected a model")
	}
	if p.add([]bool{true, false}) {
		t.Error("pool accepted a duplicate")
	}
	if p.size() != 1 {
		t.Errorf("pool size = %d want 1", p.size())
	}
}

func TestPoolDedupNoPerCandidateAllocs(t *testing.T) {
	// x1 ∨ x2 over two variables: three models. Once the pool holds them,
	// re-adding candidates (dup or invalid) must not allocate.
	f := cnf.New(2)
	f.AddClause(cnf.Lit(1), cnf.Lit(2))
	p := newPool(f)
	models := [][]bool{{true, false}, {false, true}, {true, true}}
	for _, m := range models {
		if !p.add(m) {
			t.Fatal("pool rejected a fresh model")
		}
	}
	if p.size() != 3 {
		t.Fatalf("pool size = %d want 3", p.size())
	}
	allocs := testing.AllocsPerRun(100, func() {
		p.add(models[0])            // duplicate
		p.add([]bool{false, false}) // non-model
	})
	if allocs != 0 {
		t.Errorf("steady-state pool.add allocates %.1f times per call, want 0", allocs)
	}
}
