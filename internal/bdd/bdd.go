// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// with complement detection, model counting and existential quantification.
// The extraction pass uses it as the exact semantic oracle for
// Algorithm 1's "are f and g complements?" test, and tests use SatCount to
// validate solution-space sizes.
package bdd

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/logic"
)

// Ref identifies a BDD node within a Manager. The constants FalseRef and
// TrueRef are the terminal nodes; all other refs index internal nodes.
type Ref int32

// Terminal node references.
const (
	FalseRef Ref = 0
	TrueRef  Ref = 1
)

type node struct {
	level  int32 // variable order position; terminals use math.MaxInt32
	lo, hi Ref
}

type applyKey struct {
	op   uint8
	a, b Ref
}

const (
	opAnd uint8 = iota
	opOr
	opXor
)

// Manager owns a shared node store. Nodes are hash-consed, so two
// functions are equal iff their Refs are equal within one Manager.
type Manager struct {
	nodes    []node
	unique   map[node]Ref
	apply    map[applyKey]Ref
	notCache map[Ref]Ref
	order    []int       // order[level] = variable id
	levelOf  map[int]int // variable id -> level
}

// New creates a Manager with the given variable order. Variables not listed
// may be added later with AddVar and are appended to the order.
func New(order ...int) *Manager {
	m := &Manager{
		unique:   make(map[node]Ref),
		apply:    make(map[applyKey]Ref),
		notCache: make(map[Ref]Ref),
		levelOf:  make(map[int]int),
	}
	// Terminals occupy slots 0 and 1.
	m.nodes = append(m.nodes,
		node{level: math.MaxInt32},
		node{level: math.MaxInt32},
	)
	for _, v := range order {
		m.AddVar(v)
	}
	return m
}

// AddVar registers variable id at the end of the order if not yet present.
func (m *Manager) AddVar(id int) {
	if id <= 0 {
		panic(fmt.Sprintf("bdd: variable id must be positive, got %d", id))
	}
	if _, ok := m.levelOf[id]; ok {
		return
	}
	m.levelOf[id] = len(m.order)
	m.order = append(m.order, id)
}

// NumNodes returns the number of live nodes including the two terminals.
func (m *Manager) NumNodes() int { return len(m.nodes) }

// Const returns the terminal for v.
func (m *Manager) Const(v bool) Ref {
	if v {
		return TrueRef
	}
	return FalseRef
}

// Var returns the BDD for variable id, registering it if needed.
func (m *Manager) Var(id int) Ref {
	m.AddVar(id)
	return m.mk(int32(m.levelOf[id]), FalseRef, TrueRef)
}

// NVar returns the BDD for ¬id.
func (m *Manager) NVar(id int) Ref {
	m.AddVar(id)
	return m.mk(int32(m.levelOf[id]), TrueRef, FalseRef)
}

func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	n := node{level: level, lo: lo, hi: hi}
	if r, ok := m.unique[n]; ok {
		return r
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, n)
	m.unique[n] = r
	return r
}

func (m *Manager) level(r Ref) int32 { return m.nodes[r].level }

// And returns a ∧ b.
func (m *Manager) And(a, b Ref) Ref { return m.applyOp(opAnd, a, b) }

// Or returns a ∨ b.
func (m *Manager) Or(a, b Ref) Ref { return m.applyOp(opOr, a, b) }

// Xor returns a ⊕ b.
func (m *Manager) Xor(a, b Ref) Ref { return m.applyOp(opXor, a, b) }

// Not returns ¬a.
func (m *Manager) Not(a Ref) Ref {
	switch a {
	case FalseRef:
		return TrueRef
	case TrueRef:
		return FalseRef
	}
	if r, ok := m.notCache[a]; ok {
		return r
	}
	n := m.nodes[a]
	r := m.mk(n.level, m.Not(n.lo), m.Not(n.hi))
	m.notCache[a] = r
	return r
}

func terminalOp(op uint8, a, b Ref) (Ref, bool) {
	switch op {
	case opAnd:
		if a == FalseRef || b == FalseRef {
			return FalseRef, true
		}
		if a == TrueRef {
			return b, true
		}
		if b == TrueRef {
			return a, true
		}
		if a == b {
			return a, true
		}
	case opOr:
		if a == TrueRef || b == TrueRef {
			return TrueRef, true
		}
		if a == FalseRef {
			return b, true
		}
		if b == FalseRef {
			return a, true
		}
		if a == b {
			return a, true
		}
	case opXor:
		if a == FalseRef {
			return b, true
		}
		if b == FalseRef {
			return a, true
		}
		if a == b {
			return FalseRef, true
		}
	}
	return 0, false
}

func (m *Manager) applyOp(op uint8, a, b Ref) Ref {
	if r, ok := terminalOp(op, a, b); ok {
		return r
	}
	if a > b && (op == opAnd || op == opOr || op == opXor) {
		a, b = b, a // commutative: canonicalize cache key
	}
	key := applyKey{op, a, b}
	if r, ok := m.apply[key]; ok {
		return r
	}
	la, lb := m.level(a), m.level(b)
	lvl := la
	if lb < lvl {
		lvl = lb
	}
	var a0, a1, b0, b1 Ref
	if la == lvl {
		a0, a1 = m.nodes[a].lo, m.nodes[a].hi
	} else {
		a0, a1 = a, a
	}
	if lb == lvl {
		b0, b1 = m.nodes[b].lo, m.nodes[b].hi
	} else {
		b0, b1 = b, b
	}
	r := m.mk(lvl, m.applyOp(op, a0, b0), m.applyOp(op, a1, b1))
	m.apply[key] = r
	return r
}

// Ite returns if-then-else(c, t, f).
func (m *Manager) Ite(c, t, f Ref) Ref {
	return m.Or(m.And(c, t), m.And(m.Not(c), f))
}

// FromExpr builds the BDD for a logic expression, registering any new
// variables in support order.
func (m *Manager) FromExpr(e *logic.Expr) Ref {
	for _, id := range e.Support() {
		m.AddVar(id)
	}
	return m.fromExpr(e)
}

func (m *Manager) fromExpr(e *logic.Expr) Ref {
	switch e.Op {
	case logic.OpConst:
		return m.Const(e.Val)
	case logic.OpVar:
		return m.Var(e.Var)
	case logic.OpNot:
		return m.Not(m.fromExpr(e.Args[0]))
	case logic.OpAnd:
		r := TrueRef
		for _, a := range e.Args {
			r = m.And(r, m.fromExpr(a))
			if r == FalseRef {
				return r
			}
		}
		return r
	case logic.OpOr:
		r := FalseRef
		for _, a := range e.Args {
			r = m.Or(r, m.fromExpr(a))
			if r == TrueRef {
				return r
			}
		}
		return r
	case logic.OpXor:
		r := FalseRef
		for _, a := range e.Args {
			r = m.Xor(r, m.fromExpr(a))
		}
		return r
	}
	panic("bdd: invalid expression op")
}

// Complementary reports whether a == ¬b.
func (m *Manager) Complementary(a, b Ref) bool { return a == m.Not(b) }

// Restrict fixes variable id to value in f.
func (m *Manager) Restrict(f Ref, id int, value bool) Ref {
	lvl, ok := m.levelOf[id]
	if !ok {
		return f
	}
	cache := map[Ref]Ref{}
	var rec func(r Ref) Ref
	rec = func(r Ref) Ref {
		n := m.nodes[r]
		if n.level > int32(lvl) { // includes terminals
			return r
		}
		if c, ok := cache[r]; ok {
			return c
		}
		var res Ref
		if n.level == int32(lvl) {
			if value {
				res = n.hi
			} else {
				res = n.lo
			}
		} else {
			res = m.mk(n.level, rec(n.lo), rec(n.hi))
		}
		cache[r] = res
		return res
	}
	return rec(f)
}

// Eval evaluates f under the assignment function.
func (m *Manager) Eval(f Ref, value func(id int) bool) bool {
	for f != TrueRef && f != FalseRef {
		n := m.nodes[f]
		if value(m.order[n.level]) {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == TrueRef
}

// SatCount returns the number of satisfying assignments of f over the
// manager's full variable order, as a float64 (exact for counts below 2^53).
func (m *Manager) SatCount(f Ref) float64 {
	nvars := len(m.order)
	if f == FalseRef {
		return 0
	}
	if f == TrueRef {
		return pow2(nvars)
	}
	// Standard recursion: count(r) is the number of solutions over the
	// variables strictly below r's level; skipped levels between a node and
	// its child double the child's count once per skipped variable.
	cache := map[Ref]float64{}
	var rec func(r Ref) float64
	rec = func(r Ref) float64 {
		if r == FalseRef {
			return 0
		}
		if r == TrueRef {
			return 1
		}
		if c, ok := cache[r]; ok {
			return c
		}
		n := m.nodes[r]
		lo := rec(n.lo) * pow2(int(m.nodes[n.lo].levelOrEnd(nvars))-int(n.level)-1)
		hi := rec(n.hi) * pow2(int(m.nodes[n.hi].levelOrEnd(nvars))-int(n.level)-1)
		c := lo + hi
		cache[r] = c
		return c
	}
	return rec(f) * pow2(int(m.nodes[f].level))
}

func (n node) levelOrEnd(nvars int) int32 {
	if n.level == math.MaxInt32 {
		return int32(nvars)
	}
	return n.level
}

func pow2(k int) float64 { return math.Pow(2, float64(k)) }

// Support returns the sorted variable ids actually tested by f.
func (m *Manager) Support(f Ref) []int {
	seen := map[Ref]bool{}
	vars := map[int]struct{}{}
	var rec func(r Ref)
	rec = func(r Ref) {
		if r == TrueRef || r == FalseRef || seen[r] {
			return
		}
		seen[r] = true
		n := m.nodes[r]
		vars[m.order[n.level]] = struct{}{}
		rec(n.lo)
		rec(n.hi)
	}
	rec(f)
	ids := make([]int, 0, len(vars))
	for id := range vars {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
