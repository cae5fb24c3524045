package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstructorsFoldConstants(t *testing.T) {
	cases := []struct {
		name string
		got  *Expr
		want *Expr
	}{
		{"not-true", Not(True()), False()},
		{"not-not", Not(Not(V(1))), V(1)},
		{"and-true-identity", And(V(1), True()), V(1)},
		{"and-false-dominates", And(V(1), False(), V(2)), False()},
		{"or-false-identity", Or(V(1), False()), V(1)},
		{"or-true-dominates", Or(V(1), True(), V(2)), True()},
		{"and-empty", And(), True()},
		{"or-empty", Or(), False()},
		{"xor-empty", Xor(), False()},
		{"and-dup", And(V(1), V(1)), V(1)},
		{"or-dup", Or(V(2), V(2)), V(2)},
		{"and-compl", And(V(1), Not(V(1))), False()},
		{"or-compl", Or(V(1), Not(V(1))), True()},
		{"xor-self-cancel", Xor(V(1), V(1)), False()},
		{"xor-const-flip", Xor(V(1), True()), Not(V(1))},
		{"xor-double-flip", Xor(V(1), True(), True()), V(1)},
		{"xor-not-arg", Xor(Not(V(1)), V(2)), Not(Xor(V(1), V(2)))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if Key(c.got) != Key(c.want) {
				t.Fatalf("got %v want %v", c.got, c.want)
			}
		})
	}
}

func TestEval(t *testing.T) {
	// (x1 & x2) | !x3
	e := Or(And(V(1), V(2)), Not(V(3)))
	cases := []struct {
		a    map[int]bool
		want bool
	}{
		{map[int]bool{1: true, 2: true, 3: true}, true},
		{map[int]bool{1: true, 2: false, 3: true}, false},
		{map[int]bool{1: false, 2: false, 3: false}, true},
	}
	for _, c := range cases {
		if got := e.Eval(func(id int) bool { return c.a[id] }); got != c.want {
			t.Errorf("Eval(%v) = %v want %v", c.a, got, c.want)
		}
	}
}

func TestEvalXorParity(t *testing.T) {
	e := Xor(V(1), V(2), V(3))
	for r := 0; r < 8; r++ {
		want := (r&1 ^ (r>>1)&1 ^ (r>>2)&1) == 1
		got := e.Eval(func(id int) bool { return r&(1<<(id-1)) != 0 })
		if got != want {
			t.Fatalf("row %d: got %v want %v", r, got, want)
		}
	}
}

func TestSupport(t *testing.T) {
	e := Or(And(V(4), V(2)), Xor(V(9), Not(V(2))))
	got := e.Support()
	want := []int{2, 4, 9}
	if len(got) != len(want) {
		t.Fatalf("support %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("support %v want %v", got, want)
		}
	}
}

func TestRestrict(t *testing.T) {
	e := Or(And(V(1), V(2)), And(Not(V(1)), V(3)))
	hi := Restrict(e, 1, true)
	lo := Restrict(e, 1, false)
	if Key(hi) != Key(V(2)) {
		t.Errorf("positive cofactor = %v want x2", hi)
	}
	if Key(lo) != Key(V(3)) {
		t.Errorf("negative cofactor = %v want x3", lo)
	}
}

func TestSubstitute(t *testing.T) {
	e := And(V(1), V(2))
	got := Substitute(e, 2, Or(V(3), V(4)))
	want := And(V(1), Or(V(3), V(4)))
	if Key(got) != Key(want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestEquivalentAndComplementary(t *testing.T) {
	// De Morgan: !(a & b) == !a | !b
	a := Not(And(V(1), V(2)))
	b := Or(Not(V(1)), Not(V(2)))
	if !Equivalent(a, b) {
		t.Error("De Morgan equivalence failed")
	}
	if !Complementary(And(V(1), V(2)), a) {
		t.Error("complement of AND not detected")
	}
	if Complementary(V(1), V(2)) {
		t.Error("x1 and x2 reported complementary")
	}
	if Equivalent(V(1), Not(V(1))) {
		t.Error("x1 equivalent to its negation")
	}
}

// TestPaperMuxExpression checks the worked example from the paper (Eq. 5):
// x5 = (x107 & x4) | (x108 & !x4) and its stated complement.
func TestPaperMuxExpression(t *testing.T) {
	f := Or(And(V(107), V(4)), And(V(108), Not(V(4))))
	g := Or(And(Not(V(107)), V(4)), And(Not(V(108)), Not(V(4))))
	if !Complementary(f, g) {
		t.Fatal("paper mux expression and its complement not detected as complementary")
	}
}

func TestSimplifyMuxRoundTrip(t *testing.T) {
	// A redundant formulation of a 2:1 mux must simplify to something
	// equivalent and no larger.
	raw := Or(
		And(V(1), V(2)),
		And(V(1), V(2), V(3)),
		And(Not(V(1)), V(3)),
		And(Not(V(1)), V(3), V(2)),
	)
	s := Simplify(raw)
	if !Equivalent(raw, s) {
		t.Fatal("Simplify changed semantics")
	}
	if s.Size() > raw.Size() {
		t.Fatalf("Simplify grew the expression: %d > %d", s.Size(), raw.Size())
	}
}

func TestSimplifyConstants(t *testing.T) {
	if got := Simplify(Or(V(1), Not(V(1)))); got != True() {
		t.Errorf("tautology simplified to %v", got)
	}
	if got := Simplify(And(V(1), Not(V(1)))); got != False() {
		t.Errorf("contradiction simplified to %v", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	inputs := []string{
		"x1",
		"!x2",
		"x1 & x2 | x3",
		"(x1 | x2) & !x3",
		"x1 ^ x2 ^ x3",
		"1 & x4",
		"0 | x4",
		"!(x1 & (x2 | !x3))",
	}
	for _, in := range inputs {
		e, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		back, err := Parse(Format(e))
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", Format(e), err)
		}
		if !Equivalent(e, back) {
			t.Fatalf("round trip of %q changed semantics", in)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"", "x", "x0", "(x1", "x1 &", "x1 x2", "y1", "x1)"}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", in)
		}
	}
}

// randomExpr builds a random expression over variables 1..nv with the given
// depth budget, for property tests.
func randomExpr(r *rand.Rand, nv, depth int) *Expr {
	if depth == 0 || r.Intn(4) == 0 {
		return Lit(1+r.Intn(nv), r.Intn(2) == 0)
	}
	n := 2 + r.Intn(2)
	args := make([]*Expr, n)
	for i := range args {
		args[i] = randomExpr(r, nv, depth-1)
	}
	switch r.Intn(4) {
	case 0:
		return And(args...)
	case 1:
		return Or(args...)
	case 2:
		return Xor(args...)
	default:
		return Not(args[0])
	}
}

func TestSimplifyPreservesSemanticsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		e := randomExpr(r, 6, 4)
		s := Simplify(e)
		if !Equivalent(e, s) {
			t.Fatalf("iteration %d: Simplify(%v) = %v not equivalent", i, e, s)
		}
	}
}

func TestShannonExpansionProperty(t *testing.T) {
	// f == (x & f|x=1) | (!x & f|x=0) for every variable in the support.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 5, 3)
		for _, id := range e.Support() {
			expansion := Or(
				And(V(id), Restrict(e, id, true)),
				And(Not(V(id)), Restrict(e, id, false)),
			)
			if !Equivalent(e, expansion) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDeMorganProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomExpr(r, 4, 3)
		b := randomExpr(r, 4, 3)
		return Equivalent(Not(And(a, b)), Or(Not(a), Not(b))) &&
			Equivalent(Not(Or(a, b)), And(Not(a), Not(b)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKeyStableUnderArgOrder(t *testing.T) {
	a := And(V(1), V(2), Not(V(3)))
	b := And(Not(V(3)), V(2), V(1))
	if Key(a) != Key(b) {
		t.Errorf("Key not order-invariant: %q vs %q", Key(a), Key(b))
	}
}

func TestSizeAndIsConst(t *testing.T) {
	e := And(V(1), Or(V(2), V(3)))
	if e.Size() != 5 {
		t.Errorf("Size = %d want 5", e.Size())
	}
	if _, ok := e.IsConst(); ok {
		t.Error("non-constant reported const")
	}
	if v, ok := True().IsConst(); !ok || !v {
		t.Error("True() not reported as const true")
	}
}

func TestTruthTable(t *testing.T) {
	e := And(V(2), V(5))
	support := e.Support()
	table := truthTableOn(e, support)
	if len(support) != 2 || support[0] != 2 || support[1] != 5 {
		t.Fatalf("support = %v", support)
	}
	want := []bool{false, false, false, true}
	for i := range want {
		if table[i] != want[i] {
			t.Fatalf("table = %v want %v", table, want)
		}
	}
}

func TestIteAndImplies(t *testing.T) {
	if !Equivalent(Ite(V(1), V(2), V(3)), Or(And(V(1), V(2)), And(Not(V(1)), V(3)))) {
		t.Error("Ite expansion wrong")
	}
	if !Equivalent(Implies(V(1), V(2)), Or(Not(V(1)), V(2))) {
		t.Error("Implies expansion wrong")
	}
}

// Implies returns a → b.
func Implies(a, b *Expr) *Expr { return Or(Not(a), b) }
