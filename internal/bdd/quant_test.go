package bdd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExists(t *testing.T) {
	m := New(1, 2)
	f := m.And(m.Var(1), m.Var(2))
	// ∃x1. (x1 ∧ x2) = x2
	if got := m.Exists(f, 1); got != m.Var(2) {
		t.Error("∃x1.(x1∧x2) != x2")
	}
}

// Property: f ⊆ ∃x.f as sets of models, so count(∃x.f) >= count(f).
func TestQuantifierCountMonotonicityProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 5, 3)
		m := New(1, 2, 3, 4, 5)
		f := m.FromExpr(e)
		id := 1 + r.Intn(5)
		ex := m.Exists(f, id)
		return m.SatCount(f) <= m.SatCount(ex) && m.And(f, m.Not(ex)) == FalseRef
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
