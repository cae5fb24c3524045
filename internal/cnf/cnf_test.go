package cnf

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLitBasics(t *testing.T) {
	l := Lit(5)
	if l.Var() != 5 || !l.Positive() {
		t.Error("positive literal misread")
	}
	n := l.Neg()
	if n.Var() != 5 || n.Positive() {
		t.Error("negation misread")
	}
	if !l.Sat(true) || l.Sat(false) {
		t.Error("positive literal satisfaction wrong")
	}
	if n.Sat(true) || !n.Sat(false) {
		t.Error("negative literal satisfaction wrong")
	}
}

func TestClauseSat(t *testing.T) {
	c := Clause{1, -2, 3}
	cases := []struct {
		assign []bool
		want   bool
	}{
		{[]bool{true, true, false}, true},
		{[]bool{false, false, false}, true},
		{[]bool{false, true, false}, false},
		{[]bool{false, true, true}, true},
	}
	for _, tc := range cases {
		if got := c.Sat(tc.assign); got != tc.want {
			t.Errorf("Sat(%v) = %v want %v", tc.assign, got, tc.want)
		}
	}
}

func TestClauseNormalize(t *testing.T) {
	c := Clause{3, -1, 3, 2}
	n, taut := c.Normalize()
	if taut {
		t.Fatal("non-tautology reported tautological")
	}
	want := Clause{-1, 2, 3}
	if len(n) != len(want) {
		t.Fatalf("Normalize = %v want %v", n, want)
	}
	for i := range want {
		if n[i] != want[i] {
			t.Fatalf("Normalize = %v want %v", n, want)
		}
	}
	if _, taut := (Clause{1, -1, 2}).Normalize(); !taut {
		t.Error("tautology not detected")
	}
}

func TestFormulaSatAndFirstUnsat(t *testing.T) {
	f := New(3)
	f.AddClause(1, 2)
	f.AddClause(-1, 3)
	model := []bool{true, false, true}
	if !f.Sat(model) {
		t.Error("model rejected")
	}
	if i := f.FirstUnsat(model); i != -1 {
		t.Errorf("FirstUnsat(model) = %d want -1", i)
	}
	non := []bool{true, false, false}
	if f.Sat(non) {
		t.Error("non-model accepted")
	}
	if i := f.FirstUnsat(non); i != 1 {
		t.Errorf("FirstUnsat = %d want 1", i)
	}
}

func TestAddClauseGrowsVars(t *testing.T) {
	f := New(0)
	f.AddClause(4, -9)
	if f.NumVars != 9 {
		t.Errorf("NumVars = %d want 9", f.NumVars)
	}
}

func TestOpCount2(t *testing.T) {
	f := New(3)
	f.AddClause(1, 2, 3) // 2 ORs
	f.AddClause(-1, 2)   // 1 OR
	f.AddClause(3)       // 0
	// 3 ops within clauses + 2 ANDs joining 3 clauses = 5.
	if got := f.OpCount2(); got != 5 {
		t.Errorf("OpCount2 = %d want 5", got)
	}
	if got := New(2).OpCount2(); got != 0 {
		t.Errorf("empty OpCount2 = %d want 0", got)
	}
}

const paperExample = `c paper Fig. 1 CNF example
p cnf 14 21
-1 -2 0
1 2 0
-2 3 0
2 -3 0
-3 4 0
3 -4 0
-4 -11 5 0
-4 11 -5 0
4 -12 5 0
4 12 -5 0
-6 7 0
6 -7 0
-7 8 0
7 -8 0
-8 -9 0
8 9 0
-9 -13 10 0
-9 13 -10 0
9 -14 10 0
9 14 -10 0
10 0
`

func TestParseDIMACSPaperExample(t *testing.T) {
	f, err := ParseDIMACSString(paperExample)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 14 {
		t.Errorf("NumVars = %d want 14", f.NumVars)
	}
	if f.NumClauses() != 21 {
		t.Errorf("NumClauses = %d want 21", f.NumClauses())
	}
	if got := f.Clauses[6]; got[0] != -4 || got[1] != -11 || got[2] != 5 {
		t.Errorf("clause 6 = %v, literal order not preserved", got)
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	f, err := ParseDIMACSString(paperExample)
	if err != nil {
		t.Fatal(err)
	}
	out := f.DIMACSString("round trip")
	g, err := ParseDIMACSString(out)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if g.NumVars != f.NumVars || g.NumClauses() != f.NumClauses() {
		t.Fatal("round trip changed shape")
	}
	for i := range f.Clauses {
		if len(f.Clauses[i]) != len(g.Clauses[i]) {
			t.Fatalf("clause %d changed", i)
		}
		for j := range f.Clauses[i] {
			if f.Clauses[i][j] != g.Clauses[i][j] {
				t.Fatalf("clause %d literal %d changed", i, j)
			}
		}
	}
	if !strings.Contains(out, "c round trip") {
		t.Error("comment not written")
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	bad := []string{
		"p cnf x 3\n1 0\n",
		"p dnf 3 1\n1 0\n",
		"p cnf 3\n1 0\n",
		"1 2 three 0\n",
		"1 2 3\n", // unterminated
	}
	for _, in := range bad {
		if _, err := ParseDIMACSString(in); err == nil {
			t.Errorf("ParseDIMACSString(%q) unexpectedly succeeded", in)
		}
	}
}

func TestParseDIMACSMultiClauseLine(t *testing.T) {
	f, err := ParseDIMACSString("1 2 0 -1 3 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 2 {
		t.Fatalf("NumClauses = %d want 2", f.NumClauses())
	}
}

func TestProject(t *testing.T) {
	assign := []bool{true, false, true, true}
	got := Project(assign, []int{4, 2})
	if len(got) != 2 || got[0] != true || got[1] != false {
		t.Errorf("Project = %v", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := New(2)
	f.AddClause(1, 2)
	g := f.Clone()
	g.Clauses[0][0] = -1
	if f.Clauses[0][0] != 1 {
		t.Error("Clone shares clause storage")
	}
}

// Property: a random assignment satisfies the formula iff every clause has a
// literal it satisfies (cross-check Sat against a naive evaluator).
func TestSatMatchesNaiveProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nv := 1 + r.Intn(8)
		f := New(nv)
		for i := 0; i < 1+r.Intn(10); i++ {
			k := 1 + r.Intn(3)
			c := make([]Lit, k)
			for j := range c {
				v := 1 + r.Intn(nv)
				if r.Intn(2) == 0 {
					c[j] = Lit(v)
				} else {
					c[j] = Lit(-v)
				}
			}
			f.AddClause(c...)
		}
		assign := make([]bool, nv)
		for i := range assign {
			assign[i] = r.Intn(2) == 0
		}
		naive := true
		for _, c := range f.Clauses {
			cs := false
			for _, l := range c {
				v := assign[l.Var()-1]
				if (l > 0 && v) || (l < 0 && !v) {
					cs = true
				}
			}
			naive = naive && cs
		}
		return f.Sat(assign) == naive
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestValidateCanonicalAssume: stored artifacts must carry assumptions
// already canonical — valid, strictly ascending by variable — so decoders
// refuse anything CanonicalAssume would still have to fix.
func TestValidateCanonicalAssume(t *testing.T) {
	for _, tc := range []struct {
		assume []Lit
		ok     bool
	}{
		{nil, true},
		{[]Lit{-1, 2, 5}, true},
		{CanonicalAssume([]Lit{5, -1, 2, 5}), true},
		{[]Lit{2, 1}, false},  // unsorted
		{[]Lit{1, 1}, false},  // duplicate
		{[]Lit{-1, 1}, false}, // contradictory
		{[]Lit{1, 9}, false},  // out of range
		{[]Lit{0, 1}, false},  // zero literal
	} {
		if err := ValidateCanonicalAssume(5, tc.assume); (err == nil) != tc.ok {
			t.Errorf("ValidateCanonicalAssume(5, %v) = %v, want ok=%v", tc.assume, err, tc.ok)
		}
	}
}
