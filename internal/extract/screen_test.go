package extract

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

// definitionWindow returns clauses over inputs 1..k and output v = k+1 that
// define v as the function with truth table tt (bit r = value on row r),
// one clause per row, plus noise clauses without v; clause and literal
// order are shuffled.
func definitionWindow(r *rand.Rand, k int, tt uint64) ([]cnf.Clause, int) {
	v := k + 1
	var window []cnf.Clause
	for row := 0; row < 1<<k; row++ {
		var c cnf.Clause
		for i := 0; i < k; i++ {
			if row&(1<<i) != 0 {
				c = append(c, cnf.Lit(-(i + 1)))
			} else {
				c = append(c, cnf.Lit(i+1))
			}
		}
		if tt&(1<<row) != 0 {
			c = append(c, cnf.Lit(v)) // v may not be 0 on this row
		} else {
			c = append(c, cnf.Lit(-v))
		}
		window = append(window, c)
	}
	for n := r.Intn(3); n > 0; n-- {
		window = append(window, randomClause(r, k+4, v))
	}
	r.Shuffle(len(window), func(i, j int) { window[i], window[j] = window[j], window[i] })
	for _, c := range window {
		r.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	}
	return window, v
}

// randomClause draws 1-3 literals over variables 1..n, skipping skip.
func randomClause(r *rand.Rand, n, skip int) cnf.Clause {
	var c cnf.Clause
	for len(c) < 1+r.Intn(3) {
		x := 1 + r.Intn(n)
		if x == skip {
			continue
		}
		if r.Intn(2) == 0 {
			x = -x
		}
		c = append(c, cnf.Lit(x))
	}
	return c
}

// exactPair is the complement test the screen stands in front of.
func exactPair(window []cnf.Clause, v int) bool {
	f, g, hasBoth := deriveExpressions(window, v)
	return hasBoth && complementary(f, g)
}

// TestScreenKeepsDefinitions: a window that defines v (so f ≡ ¬g) always
// passes the screen, whatever the function and the clause order.
func TestScreenKeepsDefinitions(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		k := 1 + r.Intn(5)
		tt := r.Uint64() & (1<<(1<<k) - 1)
		window, v := definitionWindow(r, k, tt)
		if !exactPair(window, v) {
			t.Fatalf("trial %d: constructed window %v does not define x%d", trial, window, v)
		}
		if !screen(window, v) {
			t.Fatalf("trial %d: screen rejected the definition of x%d in %v", trial, v, window)
		}
	}
}

// TestScreenNeverRejectsPair: on random windows, every variable the screen
// rejects also fails the exact test — and the screen does reject some.
func TestScreenNeverRejectsPair(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	rejected := 0
	for trial := 0; trial < 2000; trial++ {
		var window []cnf.Clause
		for n := 1 + r.Intn(6); n > 0; n-- {
			window = append(window, randomClause(r, 5, 0))
		}
		for v := 1; v <= 5; v++ {
			if screen(window, v) {
				continue
			}
			rejected++
			if exactPair(window, v) {
				t.Fatalf("screen rejected complementary x%d in %v", v, window)
			}
		}
	}
	if rejected == 0 {
		t.Fatal("screen rejected nothing")
	}
}
