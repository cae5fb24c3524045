package bdd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/logic"
)

func TestTerminals(t *testing.T) {
	m := New()
	if m.Const(true) != TrueRef || m.Const(false) != FalseRef {
		t.Fatal("terminal refs wrong")
	}
	if m.And(TrueRef, FalseRef) != FalseRef {
		t.Error("1∧0 != 0")
	}
	if m.Or(TrueRef, FalseRef) != TrueRef {
		t.Error("1∨0 != 1")
	}
	if m.Xor(TrueRef, TrueRef) != FalseRef {
		t.Error("1⊕1 != 0")
	}
	if m.Not(TrueRef) != FalseRef || m.Not(FalseRef) != TrueRef {
		t.Error("negation of terminals wrong")
	}
}

func TestHashConsing(t *testing.T) {
	m := New(1, 2)
	a := m.And(m.Var(1), m.Var(2))
	b := m.And(m.Var(2), m.Var(1))
	if a != b {
		t.Error("x1∧x2 and x2∧x1 got different refs")
	}
	c := m.Not(m.Or(m.Not(m.Var(1)), m.Not(m.Var(2))))
	if a != c {
		t.Error("De Morgan form got a different ref")
	}
}

func TestComplementary(t *testing.T) {
	m := New(1, 2)
	f := m.And(m.Var(1), m.Var(2))
	g := m.Or(m.NVar(1), m.NVar(2))
	if !m.Complementary(f, g) {
		t.Error("AND and NAND not complementary")
	}
	if m.Complementary(f, f) {
		t.Error("f complementary to itself")
	}
}

func TestFromExprMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		e := randomExpr(r, 6, 4)
		m := New()
		f := m.FromExpr(e)
		// Check on 64 random assignments.
		for k := 0; k < 64; k++ {
			bits := r.Uint64()
			value := func(id int) bool { return bits&(1<<uint(id)) != 0 }
			if m.Eval(f, value) != e.Eval(value) {
				t.Fatalf("iteration %d: BDD and Expr disagree on %v", i, e)
			}
		}
	}
}

func TestSatCount(t *testing.T) {
	m := New(1, 2, 3)
	cases := []struct {
		name string
		f    Ref
		want float64
	}{
		{"true", TrueRef, 8},
		{"false", FalseRef, 0},
		{"x1", m.Var(1), 4},
		{"x1&x2", m.And(m.Var(1), m.Var(2)), 2},
		{"x1|x2", m.Or(m.Var(1), m.Var(2)), 6},
		{"x1^x2^x3", m.Xor(m.Xor(m.Var(1), m.Var(2)), m.Var(3)), 4},
		{"x2-only", m.Var(2), 4},
		{"x3-only", m.Var(3), 4},
	}
	for _, c := range cases {
		if got := m.SatCount(c.f); got != c.want {
			t.Errorf("%s: SatCount = %v want %v", c.name, got, c.want)
		}
	}
}

func TestSatCountMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		e := randomExpr(r, 5, 3)
		m := New(1, 2, 3, 4, 5)
		f := m.FromExpr(e)
		brute := 0
		for row := 0; row < 32; row++ {
			if e.Eval(func(id int) bool { return row&(1<<(id-1)) != 0 }) {
				brute++
			}
		}
		if got := m.SatCount(f); got != float64(brute) {
			t.Fatalf("iteration %d: SatCount=%v brute=%d expr=%v", i, got, brute, e)
		}
	}
}

func TestRestrict(t *testing.T) {
	m := New(1, 2)
	f := m.And(m.Var(1), m.Var(2))
	if m.Restrict(f, 1, true) != m.Var(2) {
		t.Error("restrict x1=1 of x1∧x2 != x2")
	}
	if m.Restrict(f, 1, false) != FalseRef {
		t.Error("restrict x1=0 of x1∧x2 != false")
	}
}

func TestSupport(t *testing.T) {
	m := New(1, 2, 3)
	f := m.Or(m.Var(1), m.And(m.Var(3), m.NVar(1)))
	got := m.Support(f)
	// x1 ∨ (x3 ∧ ¬x1) == x1 ∨ x3, so support is {1,3}.
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Support = %v want [1 3]", got)
	}
}

func TestIte(t *testing.T) {
	m := New(1, 2, 3)
	f := m.Ite(m.Var(1), m.Var(2), m.Var(3))
	want := m.FromExpr(logic.Ite(logic.V(1), logic.V(2), logic.V(3)))
	if f != want {
		t.Error("Ite disagrees with expression expansion")
	}
}

func TestEquivalenceProperty(t *testing.T) {
	// Structural variants of the same function must hash-cons to one node.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 5, 3)
		m := New(1, 2, 3, 4, 5)
		a := m.FromExpr(e)
		b := m.FromExpr(logic.Not(logic.Not(e)))
		c := m.Not(m.FromExpr(logic.Not(e)))
		return a == b && a == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSatCountLargeUniform(t *testing.T) {
	// A single variable among n contributes 2^(n-1) models.
	m := New()
	for i := 1; i <= 40; i++ {
		m.AddVar(i)
	}
	f := m.Var(20)
	if got, want := m.SatCount(f), math.Pow(2, 39); got != want {
		t.Errorf("SatCount = %g want %g", got, want)
	}
}

func TestVarPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddVar(0) did not panic")
		}
	}()
	New(0)
}

// randomExpr mirrors the helper in package logic's tests.
func randomExpr(r *rand.Rand, nv, depth int) *logic.Expr {
	if depth == 0 || r.Intn(4) == 0 {
		return logic.Lit(1+r.Intn(nv), r.Intn(2) == 0)
	}
	n := 2 + r.Intn(2)
	args := make([]*logic.Expr, n)
	for i := range args {
		args[i] = randomExpr(r, nv, depth-1)
	}
	switch r.Intn(4) {
	case 0:
		return logic.And(args...)
	case 1:
		return logic.Or(args...)
	case 2:
		return logic.Xor(args...)
	default:
		return logic.Not(args[0])
	}
}
