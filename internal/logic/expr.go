// Package logic implements a symbolic Boolean algebra: an expression AST
// with constructors that fold constants, a simplifier, normal forms, and
// evaluation. It is the stand-in for the SymPy layer the paper uses for
// "Boolean manipulations, such as simplification and complement checking".
//
// Variables are identified by positive integers so expressions can refer
// directly to DIMACS CNF variable numbers.
package logic

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Op enumerates the node kinds of a Boolean expression.
type Op uint8

// Expression node kinds.
const (
	OpConst Op = iota // boolean constant; Val holds the value
	OpVar             // variable reference; Var holds the (positive) id
	OpNot             // negation; Args[0] is the operand
	OpAnd             // n-ary conjunction over Args
	OpOr              // n-ary disjunction over Args
	OpXor             // n-ary exclusive or over Args
)

func (o Op) String() string {
	switch o {
	case OpConst:
		return "const"
	case OpVar:
		return "var"
	case OpNot:
		return "not"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpXor:
		return "xor"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Expr is an immutable Boolean expression node. Shared subtrees are allowed;
// all operations treat Expr values as read-only.
type Expr struct {
	Op   Op
	Val  bool    // valid when Op == OpConst
	Var  int     // valid when Op == OpVar; always > 0
	Args []*Expr // operands for OpNot/OpAnd/OpOr/OpXor

	key atomic.Pointer[string] // memoized Key(e)
}

var (
	trueExpr  = &Expr{Op: OpConst, Val: true}
	falseExpr = &Expr{Op: OpConst, Val: false}
)

// True returns the constant-true expression.
func True() *Expr { return trueExpr }

// False returns the constant-false expression.
func False() *Expr { return falseExpr }

// Const returns the constant expression for v.
func Const(v bool) *Expr {
	if v {
		return trueExpr
	}
	return falseExpr
}

// V returns a variable reference. id must be positive.
func V(id int) *Expr {
	if id <= 0 {
		panic(fmt.Sprintf("logic: variable id must be positive, got %d", id))
	}
	return &Expr{Op: OpVar, Var: id}
}

// Lit returns V(id) when positive is true and ¬V(id) otherwise.
func Lit(id int, positive bool) *Expr {
	if positive {
		return V(id)
	}
	return Not(V(id))
}

// Not returns the negation of e, folding constants and double negation.
func Not(e *Expr) *Expr {
	switch e.Op {
	case OpConst:
		return Const(!e.Val)
	case OpNot:
		return e.Args[0]
	}
	return &Expr{Op: OpNot, Args: []*Expr{e}}
}

// And returns the conjunction of es. Constants are folded, nested Ands are
// flattened, duplicate operands are merged, and complementary operands
// short-circuit to false. And() is true.
func And(es ...*Expr) *Expr { return nary(OpAnd, es) }

// Or returns the disjunction of es with the dual simplifications of And.
// Or() is false.
func Or(es ...*Expr) *Expr { return nary(OpOr, es) }

// Xor returns the exclusive-or of es. Constants fold into a parity flip,
// duplicate operands cancel pairwise, and Xor() is false.
func Xor(es ...*Expr) *Expr {
	flip := false
	var args []*Expr
	var flatten func(list []*Expr)
	flatten = func(list []*Expr) {
		for _, e := range list {
			switch e.Op {
			case OpConst:
				if e.Val {
					flip = !flip
				}
			case OpXor:
				flatten(e.Args)
			case OpNot:
				// ¬a ⊕ rest == a ⊕ rest ⊕ 1
				flip = !flip
				args = append(args, e.Args[0])
			default:
				args = append(args, e)
			}
		}
	}
	flatten(es)
	// Cancel identical pairs: a ⊕ a == 0. Sort by key for stable pairing.
	sort.SliceStable(args, func(i, j int) bool { return Key(args[i]) < Key(args[j]) })
	out := args[:0]
	for i := 0; i < len(args); {
		if i+1 < len(args) && Key(args[i]) == Key(args[i+1]) {
			i += 2
			continue
		}
		out = append(out, args[i])
		i++
	}
	var res *Expr
	switch len(out) {
	case 0:
		res = falseExpr
	case 1:
		res = out[0]
	default:
		res = &Expr{Op: OpXor, Args: append([]*Expr(nil), out...)}
	}
	if flip {
		return Not(res)
	}
	return res
}

// Xnor returns ¬Xor(es...).
func Xnor(es ...*Expr) *Expr { return Not(Xor(es...)) }

// Ite returns the if-then-else (c ∧ t) ∨ (¬c ∧ f).
func Ite(c, t, f *Expr) *Expr { return Or(And(c, t), And(Not(c), f)) }

func nary(op Op, es []*Expr) *Expr {
	unit := op == OpAnd // identity element value: true for AND, false for OR
	var args []*Expr
	seen := map[string]bool{}
	short := false
	var flatten func(list []*Expr)
	flatten = func(list []*Expr) {
		for _, e := range list {
			if short {
				return
			}
			switch {
			case e.Op == OpConst:
				if e.Val != unit {
					short = true // dominating element
				}
			case e.Op == op:
				flatten(e.Args)
			default:
				k := Key(e)
				if seen[k] {
					continue
				}
				if seen[Key(Not(e))] {
					short = true // a ∧ ¬a / a ∨ ¬a
					return
				}
				seen[k] = true
				args = append(args, e)
			}
		}
	}
	flatten(es)
	if short {
		return Const(!unit)
	}
	switch len(args) {
	case 0:
		return Const(unit)
	case 1:
		return args[0]
	}
	return &Expr{Op: op, Args: args}
}

// Eval evaluates e under the assignment function value, which must return
// the value of every variable in the support of e.
func (e *Expr) Eval(value func(id int) bool) bool {
	switch e.Op {
	case OpConst:
		return e.Val
	case OpVar:
		return value(e.Var)
	case OpNot:
		return !e.Args[0].Eval(value)
	case OpAnd:
		for _, a := range e.Args {
			if !a.Eval(value) {
				return false
			}
		}
		return true
	case OpOr:
		for _, a := range e.Args {
			if a.Eval(value) {
				return true
			}
		}
		return false
	case OpXor:
		v := false
		for _, a := range e.Args {
			if a.Eval(value) {
				v = !v
			}
		}
		return v
	}
	panic("logic: invalid op in Eval")
}

// Support returns the sorted set of variable ids occurring in e.
func (e *Expr) Support() []int {
	set := map[int]struct{}{}
	e.walk(func(x *Expr) {
		if x.Op == OpVar {
			set[x.Var] = struct{}{}
		}
	})
	ids := make([]int, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func (e *Expr) walk(fn func(*Expr)) {
	fn(e)
	for _, a := range e.Args {
		a.walk(fn)
	}
}

// Size returns the number of nodes in the expression tree.
func (e *Expr) Size() int {
	n := 1
	for _, a := range e.Args {
		n += a.Size()
	}
	return n
}

// IsConst reports whether e is a boolean constant, returning its value.
func (e *Expr) IsConst() (value, ok bool) {
	if e.Op == OpConst {
		return e.Val, true
	}
	return false, false
}

// Key returns a canonical string key for structural comparison. Two
// expressions with equal keys are structurally identical up to the
// argument ordering normalization performed here.
//
// The key is memoized on the node: Expr is immutable, so it never goes
// stale, and concurrent first calls at worst build the same string twice.
func Key(e *Expr) string {
	if k := e.key.Load(); k != nil {
		return *k
	}
	k := buildKey(e)
	e.key.Store(&k)
	return k
}

// ForgetKeys clears the memoized keys of e and its operands. Keys serve
// construction (operand dedup and Xor's operand order); a caller that
// keeps finished expressions calls this so their strings do not stay
// resident. A later Key call rebuilds them. The walk is a tree walk (a
// shared operand is visited once per reference), meant for the small
// expressions extraction binds.
func ForgetKeys(e *Expr) {
	e.key.Store(nil)
	for _, a := range e.Args {
		ForgetKeys(a)
	}
}

func buildKey(e *Expr) string {
	switch e.Op {
	case OpConst:
		if e.Val {
			return "T"
		}
		return "F"
	case OpVar:
		return "v" + strconv.Itoa(e.Var)
	case OpNot:
		return "!(" + Key(e.Args[0]) + ")"
	}
	keys := make([]string, len(e.Args))
	for i, a := range e.Args {
		keys[i] = Key(a)
	}
	sort.Strings(keys)
	var open string
	switch e.Op {
	case OpAnd:
		open = "&("
	case OpOr:
		open = "|("
	case OpXor:
		open = "^("
	}
	return open + strings.Join(keys, ",") + ")"
}

// String renders e in a human-readable infix form.
func (e *Expr) String() string {
	switch e.Op {
	case OpConst:
		if e.Val {
			return "1"
		}
		return "0"
	case OpVar:
		return fmt.Sprintf("x%d", e.Var)
	case OpNot:
		return "!" + parens(e.Args[0])
	case OpAnd:
		return joinArgs(e.Args, " & ")
	case OpOr:
		return joinArgs(e.Args, " | ")
	case OpXor:
		return joinArgs(e.Args, " ^ ")
	}
	return "?"
}

func parens(e *Expr) string {
	if e.Op == OpVar || e.Op == OpConst || e.Op == OpNot {
		return e.String()
	}
	return "(" + e.String() + ")"
}

func joinArgs(args []*Expr, sep string) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = parens(a)
	}
	return strings.Join(parts, sep)
}
