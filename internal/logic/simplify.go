package logic

import "sort"

// Restrict returns e with variable id fixed to value, with constant folding
// applied bottom-up (a Shannon cofactor).
func Restrict(e *Expr, id int, value bool) *Expr {
	switch e.Op {
	case OpConst:
		return e
	case OpVar:
		if e.Var == id {
			return Const(value)
		}
		return e
	case OpNot:
		return Not(Restrict(e.Args[0], id, value))
	case OpAnd, OpOr, OpXor:
		args := make([]*Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = Restrict(a, id, value)
		}
		switch e.Op {
		case OpAnd:
			return And(args...)
		case OpOr:
			return Or(args...)
		default:
			return Xor(args...)
		}
	}
	panic("logic: invalid op in Restrict")
}

// Substitute returns e with every occurrence of variable id replaced by sub.
func Substitute(e *Expr, id int, sub *Expr) *Expr {
	switch e.Op {
	case OpConst:
		return e
	case OpVar:
		if e.Var == id {
			return sub
		}
		return e
	case OpNot:
		return Not(Substitute(e.Args[0], id, sub))
	case OpAnd, OpOr, OpXor:
		args := make([]*Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = Substitute(a, id, sub)
		}
		switch e.Op {
		case OpAnd:
			return And(args...)
		case OpOr:
			return Or(args...)
		default:
			return Xor(args...)
		}
	}
	panic("logic: invalid op in Substitute")
}

// maxTTVars bounds the support size for truth-table based procedures.
// 2^20 rows ≈ 1M evaluations, still fast for the clause windows Algorithm 1
// inspects (a handful of variables).
const maxTTVars = 20

// truthTableOn returns the truth table of e with row r assigning
// support[i] the value of bit i of r. It panics if the support exceeds
// maxTTVars variables.
func truthTableOn(e *Expr, support []int) []bool {
	if len(support) > maxTTVars {
		panic("logic: support too large for truth table")
	}
	rows := 1 << len(support)
	table := make([]bool, rows)
	idx := make(map[int]int, len(support))
	for i, id := range support {
		idx[id] = i
	}
	for r := 0; r < rows; r++ {
		table[r] = e.Eval(func(id int) bool {
			i, ok := idx[id]
			if !ok {
				return false
			}
			return r&(1<<i) != 0
		})
	}
	return table
}

// Equivalent reports whether a and b compute the same function, decided by
// exhaustive evaluation over the union of their supports. Intended for the
// small supports that arise in clause-window analysis.
func Equivalent(a, b *Expr) bool {
	support := unionSupport(a, b)
	ta := truthTableOn(a, support)
	tb := truthTableOn(b, support)
	for i := range ta {
		if ta[i] != tb[i] {
			return false
		}
	}
	return true
}

// Complementary reports whether a == ¬b as Boolean functions.
func Complementary(a, b *Expr) bool {
	support := unionSupport(a, b)
	ta := truthTableOn(a, support)
	tb := truthTableOn(b, support)
	for i := range ta {
		if ta[i] == tb[i] {
			return false
		}
	}
	return true
}

func unionSupport(a, b *Expr) []int {
	set := map[int]struct{}{}
	for _, id := range a.Support() {
		set[id] = struct{}{}
	}
	for _, id := range b.Support() {
		set[id] = struct{}{}
	}
	ids := make([]int, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Simplify returns a semantically equal expression that is no larger than e,
// obtained by constructor-level folding plus, for small supports, a
// Quine–McCluskey-style two-level minimization with factoring of the
// dominant literal. Large-support expressions are returned after
// constructor folding only.
func Simplify(e *Expr) *Expr {
	e = rebuild(e)
	support := e.Support()
	if len(support) == 0 || len(support) > 12 {
		return e
	}
	table := truthTableOn(e, support)
	min := minimizeSOP(table, support)
	if min.Size() < e.Size() {
		return min
	}
	return e
}

// rebuild reconstructs e through the folding constructors so nested
// redundancies introduced by callers collapse.
func rebuild(e *Expr) *Expr {
	switch e.Op {
	case OpConst, OpVar:
		return e
	case OpNot:
		return Not(rebuild(e.Args[0]))
	case OpAnd, OpOr, OpXor:
		args := make([]*Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = rebuild(a)
		}
		switch e.Op {
		case OpAnd:
			return And(args...)
		case OpOr:
			return Or(args...)
		default:
			return Xor(args...)
		}
	}
	panic("logic: invalid op in rebuild")
}

// cube is a product term over the support: for each position, 0 = negated,
// 1 = positive, 2 = don't-care.
type cube []uint8

func (c cube) covers(row int) bool {
	for i, v := range c {
		bit := row&(1<<i) != 0
		if v == 2 {
			continue
		}
		if (v == 1) != bit {
			return false
		}
	}
	return true
}

func (c cube) key() string {
	b := make([]byte, len(c))
	for i, v := range c {
		b[i] = '0' + v
	}
	return string(b)
}

// minimizeSOP produces a minimal-ish sum-of-products for the function given
// by table over support, then converts it back to an Expr. It implements
// the Quine–McCluskey prime generation followed by a greedy cover.
func minimizeSOP(table []bool, support []int) *Expr {
	n := len(support)
	var minterms []int
	for r, v := range table {
		if v {
			minterms = append(minterms, r)
		}
	}
	if len(minterms) == 0 {
		return False()
	}
	if len(minterms) == len(table) {
		return True()
	}

	// Seed cubes are the minterms themselves.
	current := map[string]cube{}
	for _, m := range minterms {
		c := make(cube, n)
		for i := 0; i < n; i++ {
			if m&(1<<i) != 0 {
				c[i] = 1
			}
		}
		current[c.key()] = c
	}

	var primes []cube
	for len(current) > 0 {
		merged := map[string]bool{}
		next := map[string]cube{}
		keys := sortedKeys(current)
		for i := 0; i < len(keys); i++ {
			for j := i + 1; j < len(keys); j++ {
				a, b := current[keys[i]], current[keys[j]]
				if d := mergeDistance(a, b); d >= 0 {
					c := make(cube, n)
					copy(c, a)
					c[d] = 2
					next[c.key()] = c
					merged[keys[i]] = true
					merged[keys[j]] = true
				}
			}
		}
		for _, k := range keys {
			if !merged[k] {
				primes = append(primes, current[k])
			}
		}
		current = next
	}

	// Greedy cover of minterms by primes (essential primes first).
	chosen := greedyCover(minterms, primes)

	terms := make([]*Expr, 0, len(chosen))
	for _, c := range chosen {
		var lits []*Expr
		for i, v := range c {
			switch v {
			case 0:
				lits = append(lits, Not(V(support[i])))
			case 1:
				lits = append(lits, V(support[i]))
			}
		}
		terms = append(terms, And(lits...))
	}
	return Or(terms...)
}

// mergeDistance returns the single position where a and b differ in a
// mergeable way (both specified, opposite), or -1.
func mergeDistance(a, b cube) int {
	d := -1
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		if a[i] == 2 || b[i] == 2 {
			return -1
		}
		if d >= 0 {
			return -1
		}
		d = i
	}
	return d
}

func greedyCover(minterms []int, primes []cube) []cube {
	uncovered := map[int]bool{}
	for _, m := range minterms {
		uncovered[m] = true
	}
	var chosen []cube
	for len(uncovered) > 0 {
		best, bestCount := -1, 0
		for i, p := range primes {
			count := 0
			for m := range uncovered {
				if p.covers(m) {
					count++
				}
			}
			if count > bestCount {
				best, bestCount = i, count
			}
		}
		if best < 0 {
			break // cannot happen for a consistent table; defensive
		}
		chosen = append(chosen, primes[best])
		for m := range uncovered {
			if primes[best].covers(m) {
				delete(uncovered, m)
			}
		}
	}
	return chosen
}

func sortedKeys(m map[string]cube) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
