package bdd

// Existential quantification, used by the quality package to count the
// models of a projected formula.

// Exists returns ∃id. f  (the OR of both cofactors).
func (m *Manager) Exists(f Ref, id int) Ref {
	return m.Or(m.Restrict(f, id, false), m.Restrict(f, id, true))
}
