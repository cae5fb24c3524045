// Package cnf provides conjunctive-normal-form formulas: literals, clauses,
// DIMACS parsing and writing, assignment evaluation, unit propagation, and
// the bit-wise operation counting used by the paper's Fig. 4 ablation
// ("2-input gate equivalents").
package cnf

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Lit is a DIMACS-style literal: +v for variable v, -v for its negation.
// Zero is not a valid literal.
type Lit int

// Var returns the variable index of l (always positive).
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Positive reports whether l is a positive literal.
func (l Lit) Positive() bool { return l > 0 }

// Neg returns the negation of l.
func (l Lit) Neg() Lit { return -l }

// Sat reports whether l is satisfied by value (the value of its variable).
func (l Lit) Sat(value bool) bool { return (l > 0) == value }

// Clause is a disjunction of literals.
type Clause []Lit

// Sat reports whether the clause is satisfied by the dense assignment,
// where assign[v-1] is the value of variable v.
func (c Clause) Sat(assign []bool) bool {
	for _, l := range c {
		if l.Sat(assign[l.Var()-1]) {
			return true
		}
	}
	return false
}

// Contains reports whether the clause contains l.
func (c Clause) Contains(l Lit) bool {
	for _, x := range c {
		if x == l {
			return true
		}
	}
	return false
}

// Clone returns a copy of the clause.
func (c Clause) Clone() Clause { return append(Clause(nil), c...) }

// Normalize sorts literals by variable and removes duplicates. It returns
// (nil, true) when the clause is a tautology (contains l and ¬l).
func (c Clause) Normalize() (Clause, bool) {
	out := c.Clone()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Var() != out[j].Var() {
			return out[i].Var() < out[j].Var()
		}
		return out[i] < out[j]
	})
	w := 0
	for i := 0; i < len(out); i++ {
		if w > 0 && out[w-1] == out[i] {
			continue
		}
		if w > 0 && out[w-1].Var() == out[i].Var() {
			return nil, true // v and ¬v
		}
		out[w] = out[i]
		w++
	}
	return out[:w], false
}

// Formula is a CNF formula: a conjunction of clauses over NumVars variables
// numbered 1..NumVars.
type Formula struct {
	NumVars int
	Clauses []Clause
	// Projection is the declared sampling set ("c ind"/"p show" lines in
	// DIMACS): solution identity is the assignment restricted to these
	// variables, in declared order. Empty means no projection — every
	// variable counts. Parsing guarantees the list is duplicate-free and
	// within 1..NumVars; programmatic writers should run
	// ValidateProjection before handing the formula to samplers.
	Projection []int
}

// New returns an empty formula over n variables.
func New(n int) *Formula { return &Formula{NumVars: n} }

// AddClause appends a clause, growing NumVars as needed. It keeps the
// literal order given by the caller (Algorithm 1 is order-sensitive).
func (f *Formula) AddClause(lits ...Lit) {
	c := make(Clause, len(lits))
	copy(c, lits)
	for _, l := range c {
		if l == 0 {
			panic("cnf: zero literal in clause")
		}
		if v := l.Var(); v > f.NumVars {
			f.NumVars = v
		}
	}
	f.Clauses = append(f.Clauses, c)
}

// NumClauses returns the number of clauses.
func (f *Formula) NumClauses() int { return len(f.Clauses) }

// Sat reports whether the dense assignment satisfies every clause.
// assign[v-1] is the value of variable v; len(assign) must be >= NumVars.
func (f *Formula) Sat(assign []bool) bool {
	for _, c := range f.Clauses {
		if !c.Sat(assign) {
			return false
		}
	}
	return true
}

// FirstUnsat returns the index of the first clause falsified by assign,
// or -1 when the assignment is a model.
func (f *Formula) FirstUnsat(assign []bool) int {
	for i, c := range f.Clauses {
		if !c.Sat(assign) {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy of the formula.
func (f *Formula) Clone() *Formula {
	g := &Formula{NumVars: f.NumVars, Clauses: make([]Clause, len(f.Clauses))}
	for i, c := range f.Clauses {
		g.Clauses[i] = c.Clone()
	}
	if f.Projection != nil {
		g.Projection = append([]int(nil), f.Projection...)
	}
	return g
}

// ParseProjectionList reads a comma-separated projection variable list —
// the spelling shared by satsample's -project flag and satserved's
// ?project= parameter. An empty (or all-whitespace) spec is no projection
// (nil, nil); a spec with tokens but no variables is an error, so a typo
// like "," cannot silently mean "sample everything". Range and duplicate
// checks are ValidateProjection's job once the variable count is known.
func ParseProjectionList(spec string) ([]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []int
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("cnf: bad projection variable %q", tok)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cnf: projection list %q names no variables", spec)
	}
	return out, nil
}

// ValidateProjection checks a projection list against the formula: every
// variable must be in 1..NumVars and appear at most once. It is the same
// validation ParseDIMACS applies to "c ind"/"p show" lines, exposed for
// callers that attach projections programmatically (e.g. from a request
// parameter).
func ValidateProjection(numVars int, projection []int) error {
	seen := make(map[int]bool, len(projection))
	for _, v := range projection {
		if v < 1 || v > numVars {
			return fmt.Errorf("cnf: projection variable %d out of range 1..%d", v, numVars)
		}
		if seen[v] {
			return fmt.Errorf("cnf: duplicate projection variable %d", v)
		}
		seen[v] = true
	}
	return nil
}

// OpCount2 returns the number of bit-wise operations in the formula in
// 2-input gate equivalents: a k-literal clause costs k-1 two-input ORs,
// and conjoining m clauses costs m-1 two-input ANDs. Literal negations are
// free, matching the paper's gate-equivalent accounting.
func (f *Formula) OpCount2() int {
	if len(f.Clauses) == 0 {
		return 0
	}
	ops := len(f.Clauses) - 1
	for _, c := range f.Clauses {
		if len(c) > 1 {
			ops += len(c) - 1
		}
	}
	return ops
}

// Stats summarises a formula for reporting.
type Stats struct {
	NumVars    int
	NumClauses int
	NumLits    int
	MaxClause  int
}

// Stats returns summary statistics.
func (f *Formula) Stats() Stats {
	s := Stats{NumVars: f.NumVars, NumClauses: len(f.Clauses)}
	for _, c := range f.Clauses {
		s.NumLits += len(c)
		if len(c) > s.MaxClause {
			s.MaxClause = len(c)
		}
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("vars=%d clauses=%d lits=%d maxclause=%d",
		s.NumVars, s.NumClauses, s.NumLits, s.MaxClause)
}

// Project returns the sub-assignment of assign restricted to vars.
func Project(assign []bool, vars []int) []bool {
	out := make([]bool, len(vars))
	for i, v := range vars {
		out[i] = assign[v-1]
	}
	return out
}
