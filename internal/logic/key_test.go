package logic

import (
	"math/rand"
	"sync"
	"testing"
)

// TestKeyFormat pins the key strings literally: Xor orders its operands by
// key, so the format is part of every extracted circuit's shape.
func TestKeyFormat(t *testing.T) {
	cases := []struct {
		e    *Expr
		want string
	}{
		{True(), "T"},
		{False(), "F"},
		{V(12), "v12"},
		{Not(V(1)), "!(v1)"},
		{And(V(12), Not(V(3)), V(2)), "&(!(v3),v12,v2)"},
		{Or(And(V(1), V(2)), Not(Xor(V(3), V(4))), V(10)), "|(!(^(v3,v4)),&(v1,v2),v10)"},
		{Xor(Not(V(2)), V(1), And(V(3), Or(V(4), Not(V(5))))), "!(^(&(v3,|(!(v5),v4)),v1,v2))"},
	}
	for _, c := range cases {
		if got := Key(c.e); got != c.want {
			t.Errorf("Key(%v) = %q, want %q", c.e, got, c.want)
		}
		if got := Key(c.e); got != c.want {
			t.Errorf("memoized Key(%v) = %q, want %q", c.e, got, c.want)
		}
	}
	// Key order, not construction order, fixes Xor's operands.
	if got := Xor(V(9), V(10)).String(); got != "x10 ^ x9" {
		t.Errorf("Xor(x9, x10) = %s, want x10 ^ x9", got)
	}
}

// TestForgetKeys: ForgetKeys clears the memo on every node, and Key
// rebuilds the same string afterwards.
func TestForgetKeys(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		e := randomExpr(r, 5, 3)
		want := Key(e)
		ForgetKeys(e)
		var check func(*Expr)
		check = func(n *Expr) {
			if n.key.Load() != nil {
				t.Fatalf("%v: key still memoized on %v", e, n)
			}
			for _, a := range n.Args {
				check(a)
			}
		}
		check(e)
		if got := Key(e); got != want {
			t.Fatalf("Key after ForgetKeys = %q, want %q", got, want)
		}
	}
}

// TestKeyConcurrent: first Key calls race on shared subtrees (problems
// compile concurrently); run under -race. Every goroutine must see the key
// a fresh, unshared copy of the tree produces.
func TestKeyConcurrent(t *testing.T) {
	build := func() []*Expr {
		shared := Or(V(1), Not(V(2)), And(V(3), V(4)))
		return []*Expr{
			shared,
			And(shared, V(5)),
			Xor(shared, V(6)),
			Not(And(Or(shared, V(7)), Xor(V(8), shared))),
		}
	}
	var want []string
	for _, e := range build() {
		want = append(want, Key(e))
	}
	roots := build()
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(roots))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range roots {
				k := (i + g) % len(roots)
				if got := Key(roots[k]); got != want[k] {
					errs <- got
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for got := range errs {
		t.Errorf("concurrent Key = %q", got)
	}
}

// sameTree reports structural identity, operand order included.
func sameTree(a, b *Expr) bool {
	if a.Op != b.Op || a.Val != b.Val || a.Var != b.Var || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !sameTree(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

// TestSimplifyKeepsSignatureGates: Simplify returns every gate form the
// extraction's signature matcher builds — BUF/INV, n-ary AND/OR over
// literals of distinct variables, XOR2/XNOR2 — with the same structure and
// operand order, which is why extraction may skip it on those gates.
func TestSimplifyKeepsSignatureGates(t *testing.T) {
	forms := []*Expr{V(7), Not(V(7)), Xor(V(3), V(9)), Xnor(V(3), V(9)), Xor(V(12), V(2))}
	r := rand.New(rand.NewSource(11))
	// Every width up to 12 runs the minimizer; 13 and 16 take Simplify's
	// early return past 12 variables. An n-input AND has one minterm, so
	// it is cheap at any width, but an n-input OR has 2^n-1 and its
	// Quine–McCluskey run grows over 10x per input (0.25 s at 8, 2.3 s at
	// 9, 32 s at 10 on a 2-CPU host), so ORs stop at width 8.
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16} {
		trials := 4
		if n == 8 {
			trials = 1
		}
		for trial := 0; trial < trials; trial++ {
			lits := make([]*Expr, n)
			neg := make([]*Expr, n)
			for i, p := range r.Perm(n + 4)[:n] {
				lits[i] = Lit(p+1, r.Intn(2) == 0)
				neg[i] = Not(lits[i])
			}
			if n <= 8 || n > 12 {
				forms = append(forms, Or(lits...))
			}
			forms = append(forms, And(neg...))
		}
	}
	for _, e := range forms {
		if got := Simplify(e); !sameTree(got, e) {
			t.Errorf("Simplify(%v) = %v", e, got)
		}
	}
}
