package extract

import (
	"repro/internal/cnf"
	"repro/internal/logic"
)

// Signature-based gate recognition: the paper's §III-A observes that the
// Tseitin clause groups of primary operators (Eqs. 1–4) can be recovered
// by direct pattern matching before falling back to the general
// derive-and-check-complement procedure. This fast path recognizes
// buffers/inverters, n-ary AND/OR/NAND/NOR groups and 2-input XOR/XNOR
// groups structurally, avoiding expression minimization for the vast
// majority of windows on Tseitin-encoded instances. Recognition failures
// fall through to the general algorithm, so the fast path is purely an
// accelerator — both paths are covered by the same equisatisfiability
// tests.

// recognizeSignature tries to match the clauses of the window containing
// ±v against a primary-operator signature with output v. It returns the
// recovered expression on success.
func recognizeSignature(window []cnf.Clause, v int) (*logic.Expr, bool) {
	var withV []cnf.Clause
	for _, c := range window {
		for _, l := range c {
			if l.Var() == v {
				withV = append(withV, c)
				break
			}
		}
	}
	if len(withV) < 2 {
		return nil, false
	}
	if e, ok := matchBufInv(withV, v); ok {
		return e, true
	}
	if e, ok := matchAndOr(withV, v); ok {
		return e, true
	}
	if e, ok := matchXor2(withV, v); ok {
		return e, true
	}
	return nil, false
}

// matchBufInv recognizes Eq. (1)-style pairs:
// (v ∨ ¬w)(¬v ∨ w) → v = w;  (v ∨ w)(¬v ∨ ¬w) → v = ¬w.
func matchBufInv(cs []cnf.Clause, v int) (*logic.Expr, bool) {
	if len(cs) != 2 || len(cs[0]) != 2 || len(cs[1]) != 2 {
		return nil, false
	}
	other := func(c cnf.Clause) (cnf.Lit, cnf.Lit) {
		if c[0].Var() == v {
			return c[0], c[1]
		}
		return c[1], c[0]
	}
	v0, w0 := other(cs[0])
	v1, w1 := other(cs[1])
	if w0.Var() != w1.Var() || w0.Var() == v {
		return nil, false
	}
	// Need opposite polarities of v across the two clauses and opposite
	// polarities of w (buffer) or same... enumerate: clause (v-lit, w-lit)
	// pairs encode v = w iff each clause is (v ∨ ¬w) / (¬v ∨ w).
	if v0.Positive() == v1.Positive() {
		return nil, false
	}
	// Normalize so v0 is the positive-v clause.
	if !v0.Positive() {
		v0, w0, v1, w1 = v1, w1, v0, w0
	}
	_ = v1
	switch {
	case !w0.Positive() && w1.Positive():
		return logic.V(w0.Var()), true // v = w
	case w0.Positive() && !w1.Positive():
		return logic.Not(logic.V(w0.Var())), true // v = ¬w
	}
	return nil, false
}

// matchAndOr recognizes Eq. (2)/(3)-style groups with output v:
//
//	OR:  (¬v ∨ l1 … ln) ∧ ⋀i (v ∨ ¬li)   → v = l1 ∨ … ∨ ln
//	AND: (v ∨ ¬l1 … ¬ln) ∧ ⋀i (¬v ∨ li)  → v = l1 ∧ … ∧ ln
//
// where li are arbitrary literals (inputs may be negated).
func matchAndOr(cs []cnf.Clause, v int) (*logic.Expr, bool) {
	// Find the single wide clause and the binary side clauses.
	var wide cnf.Clause
	var bins []cnf.Clause
	for _, c := range cs {
		switch {
		case len(c) == 2:
			bins = append(bins, c)
		case len(c) >= 2 && wide == nil:
			wide = c
		default:
			return nil, false
		}
	}
	if wide == nil || len(bins) != len(wide)-1 {
		// A 2-input gate has a ternary wide clause and 2 binaries; an
		// n-input one has n binaries. A wide==binary (n=1) case is the
		// buffer pattern handled elsewhere.
		return nil, false
	}
	var vLit cnf.Lit
	rest := map[cnf.Lit]bool{}
	for _, l := range wide {
		if l.Var() == v {
			vLit = l
		} else {
			rest[l] = true
		}
	}
	if vLit == 0 || len(rest) != len(wide)-1 {
		return nil, false
	}
	// Each binary clause must be (¬vLit ∨ ¬li) for some li in rest.
	matched := map[cnf.Lit]bool{}
	for _, c := range bins {
		var bv, bw cnf.Lit
		if c[0].Var() == v {
			bv, bw = c[0], c[1]
		} else if c[1].Var() == v {
			bv, bw = c[1], c[0]
		} else {
			return nil, false
		}
		if bv != -vLit {
			return nil, false
		}
		if !rest[-bw] || matched[-bw] {
			return nil, false
		}
		matched[-bw] = true
	}
	// vLit negative → OR of rest literals; positive → AND of their
	// negations. Operands follow the wide clause's literal order, so the
	// gate's fanin order is a function of the CNF.
	var lits []*logic.Expr
	for _, l := range wide {
		if l.Var() != v {
			lits = append(lits, logic.Lit(l.Var(), l.Positive()))
		}
	}
	if !vLit.Positive() {
		return logic.Or(lits...), true
	}
	neg := make([]*logic.Expr, len(lits))
	for i, e := range lits {
		neg[i] = logic.Not(e)
	}
	return logic.And(neg...), true
}

// matchXor2 recognizes the 2-input XOR/XNOR group (Eq. 4 with n=2): four
// ternary clauses over {v, a, b} whose conjunction forces v = a⊕b or
// v = ¬(a⊕b), decided by an 8-row truth check.
func matchXor2(cs []cnf.Clause, v int) (*logic.Expr, bool) {
	if len(cs) != 4 {
		return nil, false
	}
	vars := map[int]bool{}
	for _, c := range cs {
		if len(c) != 3 {
			return nil, false
		}
		for _, l := range c {
			vars[l.Var()] = true
		}
	}
	if len(vars) != 3 || !vars[v] {
		return nil, false
	}
	var others []int
	for w := range vars {
		if w != v {
			others = append(others, w)
		}
	}
	a, b := others[0], others[1]
	// Truth check: conjunction of the 4 clauses equals (v == a⊕b) or its
	// complement.
	matchesXor, matchesXnor := true, true
	for mask := 0; mask < 8; mask++ {
		val := map[int]bool{v: mask&1 != 0, a: mask&2 != 0, b: mask&4 != 0}
		sat := true
		for _, c := range cs {
			cSat := false
			for _, l := range c {
				if l.Sat(val[l.Var()]) {
					cSat = true
					break
				}
			}
			if !cSat {
				sat = false
				break
			}
		}
		xorHolds := val[v] == (val[a] != val[b])
		if sat != xorHolds {
			matchesXor = false
		}
		if sat != !xorHolds {
			matchesXnor = false
		}
	}
	switch {
	case matchesXor:
		return logic.Xor(logic.V(a), logic.V(b)), true
	case matchesXnor:
		return logic.Xnor(logic.V(a), logic.V(b)), true
	}
	return nil, false
}
