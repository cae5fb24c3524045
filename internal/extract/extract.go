// Package extract implements the paper's transformation algorithm
// (Algorithm 1): it converts a CNF — typically the Tseitin encoding of some
// multi-level circuit — back into an equisatisfiable multi-level,
// multi-output Boolean function, classifying every CNF variable as a primary
// input, an intermediate variable, or a primary output.
//
// The clause window scan follows the paper: clauses are read in order into
// a window; for each unclassified variable v in the window, the Boolean
// expression f for v is derived from the window clauses containing ¬v and
// the expression g for ¬v from those containing v; when f == ¬g the window
// encodes "v = f". Constant f makes v a primary output; otherwise v becomes
// an intermediate variable and the support of f joins the primary inputs.
//
// Two engineering refinements over the paper's pseudo-code (both strictly
// constraint-preserving, documented in DESIGN.md):
//
//  1. On resolution, only the clauses containing v are discarded. Those
//     clauses are exactly equivalent to v = f (given complementarity), so
//     unrelated clauses that happen to share the window are never dropped.
//  2. The under-specified fallback (window variables disjoint from all
//     later clauses) is triggered by an exact lookahead table, and the
//     window conjunction becomes an auxiliary output constrained to 1.
package extract

import (
	"fmt"
	"time"

	"repro/internal/bdd"
	"repro/internal/bitblast"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/logic"
)

// Kind classifies a CNF variable in the extracted function.
type Kind uint8

// Variable classifications.
const (
	PrimaryInput Kind = iota
	Intermediate
	PrimaryOutput
)

func (k Kind) String() string {
	switch k {
	case PrimaryInput:
		return "PI"
	case Intermediate:
		return "IV"
	case PrimaryOutput:
		return "PO"
	}
	return "?"
}

// Binding records one recovered definition "Var = Expr".
type Binding struct {
	Var  int // CNF variable; 0 for auxiliary (fallback) outputs
	Expr *logic.Expr
}

// Result is the outcome of a transformation.
type Result struct {
	// Circuit is the extracted multi-level, multi-output function. Its
	// inputs are the primary-input CNF variables (in classification order)
	// and its outputs carry the constant constraints.
	Circuit *circuit.Circuit
	// PrimaryInputs, Intermediates, PrimaryOutputs list CNF variables by
	// classification, in discovery order.
	PrimaryInputs  []int
	Intermediates  []int
	PrimaryOutputs []int
	// Bindings lists the recovered expressions in recovery order.
	Bindings []Binding
	// NodeOf maps a CNF variable to its circuit node.
	NodeOf map[int]circuit.NodeID
	// OutputSources records, for each Circuit.Outputs entry (same order),
	// the indices of the original CNF clauses whose constraints produced
	// that output: the clauses consumed by a primary-output resolution, or
	// the whole window of a fallback. It is the provenance table behind
	// clause-weighted GD — per-clause weights aggregate onto the engine
	// outputs they constrain. Clauses consumed by intermediate resolutions
	// feed no output directly; their weights are absorbed structurally.
	OutputSources [][]int
	// TransformTime is the wall-clock cost of the transformation (the
	// paper's Fig. 4 right).
	TransformTime time.Duration
	// Windows counts resolved clause windows; Fallbacks counts windows
	// flushed through the under-specified path; SignatureHits counts
	// windows resolved by the Eq. 1–4 pattern-matching fast path rather
	// than the general derive-and-complement procedure.
	Windows       int
	Fallbacks     int
	SignatureHits int
}

// GateHistogram counts the recovered circuit's nodes by gate type, keyed
// by the gate name (INPUT/CONST/BUF/NOT/AND/OR/…).
func (r *Result) GateHistogram() map[string]int {
	h := map[string]int{}
	for _, nd := range r.Circuit.Nodes {
		h[nd.Type.String()]++
	}
	return h
}

// ProjectionNodes maps projection variables to circuit nodes for the
// bit-parallel projected-signature path (bitblast.Eval.VerifyProject):
// out[k] is the node of vars[k], or -1 when the variable never received a
// node and defaults to false, matching AssignmentFromInputs.
func (r *Result) ProjectionNodes(vars []int) []int32 {
	out := make([]int32, len(vars))
	for i, v := range vars {
		if id, ok := r.NodeOf[v]; ok {
			out[i] = int32(id)
		} else {
			out[i] = -1
		}
	}
	return out
}

// AssignmentFromInputs evaluates the extracted circuit under the given
// primary-input values (in circuit input order) and returns a dense CNF
// assignment (assign[v-1] = value of CNF variable v) covering every
// variable that received a node.
func (r *Result) AssignmentFromInputs(numVars int, inputs []bool) []bool {
	vals := r.Circuit.Eval(inputs)
	assign := make([]bool, numVars)
	for v, id := range r.NodeOf {
		assign[v-1] = vals[id]
	}
	return assign
}

// Verifier compiles a bit-parallel checker for this transformation: it
// reconstructs the full CNF assignment of 64 candidate primary-input rows
// per uint64 word sweep and reports which rows satisfy f — the packed
// analogue of AssignmentFromInputs + Formula.Sat, sharing the same
// nodeless-variables-default-false convention through NodeOf.
func (r *Result) Verifier(f *cnf.Formula) *bitblast.Program {
	return bitblast.New(r.Circuit, r.NodeOf, f)
}

// Transform runs Algorithm 1 on f.
func Transform(f *cnf.Formula) (*Result, error) {
	start := time.Now()
	t := &transformer{
		res: &Result{
			Circuit: circuit.NewCircuit(),
			NodeOf:  map[int]circuit.NodeID{},
		},
		kind:    map[int]Kind{},
		classed: map[int]bool{},
	}
	// Lookahead: last clause index in which each variable occurs.
	lastUse := map[int]int{}
	for i, c := range f.Clauses {
		for _, l := range c {
			lastUse[l.Var()] = i
		}
	}

	var window []cnf.Clause
	var winIdx []int // original clause index of each window clause (provenance)
	for i, c := range f.Clauses {
		if len(c) == 0 {
			return nil, fmt.Errorf("extract: clause %d is empty (formula unsatisfiable)", i)
		}
		window = append(window, c)
		winIdx = append(winIdx, i)
		// Try resolutions until the window is stable.
		for {
			v, expr, ok := t.tryResolve(window)
			if !ok {
				break
			}
			window, winIdx = t.commit(window, winIdx, v, expr)
			t.res.Windows++
			if len(window) == 0 {
				break
			}
		}
		// Under-specified flush: no window variable occurs later.
		if len(window) > 0 {
			flush := true
			for _, wc := range window {
				for _, l := range wc {
					if lastUse[l.Var()] > i {
						flush = false
						break
					}
				}
				if !flush {
					break
				}
			}
			if flush {
				t.fallback(window, winIdx)
				window, winIdx = nil, nil
			}
		}
	}
	if len(window) > 0 {
		t.fallback(window, winIdx)
	}
	// The bindings live as long as the compiled problem; their keys were
	// only needed to build them.
	for _, b := range t.res.Bindings {
		logic.ForgetKeys(b.Expr)
	}
	t.res.TransformTime = time.Since(start)
	return t.res, nil
}

type transformer struct {
	res     *Result
	kind    map[int]Kind
	classed map[int]bool // variable has been classified
}

// nodeFor returns the circuit node for CNF variable v, creating a primary
// input node (and classifying v as PI) when it has none.
func (t *transformer) nodeFor(v int) circuit.NodeID {
	if id, ok := t.res.NodeOf[v]; ok {
		return id
	}
	id := t.res.Circuit.AddInput(fmt.Sprintf("x%d", v))
	t.res.Circuit.Nodes[id].Var = v
	t.res.NodeOf[v] = id
	t.kind[v] = PrimaryInput
	t.classed[v] = true
	t.res.PrimaryInputs = append(t.res.PrimaryInputs, v)
	return id
}

// tryResolve scans the window's variables in order of first appearance and
// returns the first (v, f) with f == ¬g per the paper's test. A derived f
// is simplified; a signature match is not: it is a BUF/INV, n-ary AND/OR or
// XOR2/XNOR2 built by the logic constructors, which logic.Simplify returns
// unchanged because no two-level form of it is smaller.
func (t *transformer) tryResolve(window []cnf.Clause) (int, *logic.Expr, bool) {
	seen := map[int]bool{}
	for _, c := range window {
		for _, l := range c {
			v := l.Var()
			if seen[v] || t.classed[v] {
				continue
			}
			seen[v] = true
			if !screen(window, v) {
				continue
			}
			// Fast path: Eq. 1–4 signature pattern matching.
			if expr, ok := recognizeSignature(window, v); ok {
				t.res.SignatureHits++
				return v, expr, true
			}
			fExpr, gExpr, hasBoth := deriveExpressions(window, v)
			if !hasBoth {
				continue
			}
			if complementary(fExpr, gExpr) {
				return v, logic.Simplify(fExpr), true
			}
		}
	}
	return 0, nil, false
}

// deriveExpressions builds the candidate expression for v (from clauses
// containing ¬v, each contributing the OR of its remaining literals) and
// for ¬v (from clauses containing v). hasBoth is false when v occurs in
// only one polarity in a window that still has other variables — such a v
// can never pass the complement test unless one side is empty by design
// (the unit-output case is covered because an empty side derives a
// constant).
func deriveExpressions(window []cnf.Clause, v int) (fExpr, gExpr *logic.Expr, hasBoth bool) {
	var fTerms, gTerms []*logic.Expr
	pos, neg := 0, 0
	for _, c := range window {
		hasPos, hasNeg := false, false
		for _, l := range c {
			if l.Var() == v {
				if l.Positive() {
					hasPos = true
				} else {
					hasNeg = true
				}
			}
		}
		rest := func() *logic.Expr {
			var lits []*logic.Expr
			for _, l := range c {
				if l.Var() == v {
					continue
				}
				lits = append(lits, logic.Lit(l.Var(), l.Positive()))
			}
			return logic.Or(lits...)
		}
		if hasNeg {
			neg++
			fTerms = append(fTerms, rest())
		}
		if hasPos {
			pos++
			gTerms = append(gTerms, rest())
		}
	}
	if pos == 0 && neg == 0 {
		return nil, nil, false
	}
	return logic.And(fTerms...), logic.And(gTerms...), true
}

// screen is a necessary condition for v to pass the complement test. It
// evaluates the two cofactor clause sets deriveExpressions would build —
// f from the clauses containing ¬v, g from those containing v, each clause
// minus v — straight from the window on 64 assignments at once, one per
// bit lane, and returns false when some lane has f == g: then f ≢ ¬g, and
// the exact test would fail. It never rejects a complementary pair (a
// signature match is one too), so it only spares the matching and
// derive-and-check work on variables that are not gate outputs; it never
// changes which variable resolves.
func screen(window []cnf.Clause, v int) bool {
	f, g := ^uint64(0), ^uint64(0)
	for _, c := range window {
		var rest uint64
		hasPos, hasNeg := false, false
		for _, l := range c {
			switch {
			case l.Var() != v:
				rest |= laneWord(l)
			case l.Positive():
				hasPos = true
			default:
				hasNeg = true
			}
		}
		if hasNeg {
			f &= rest
		}
		if hasPos {
			g &= rest
		}
	}
	return f^g == ^uint64(0)
}

// laneWord is literal l's value on the screen's 64 lanes: a fixed
// SplitMix64 hash of its variable, complemented for a negative literal.
func laneWord(l cnf.Lit) uint64 {
	z := uint64(l.Var()) * 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if !l.Positive() {
		z = ^z
	}
	return z
}

// complementary decides f == ¬g, via truth tables for small supports and
// BDDs otherwise.
func complementary(f, g *logic.Expr) bool {
	supF, supG := f.Support(), g.Support()
	if len(supF) <= 14 && len(supG) <= 14 {
		return logic.Complementary(f, g)
	}
	m := bdd.New()
	return m.Complementary(m.FromExpr(f), m.FromExpr(g))
}

// commit applies a successful resolution: record the binding, classify v,
// instantiate the expression as gates, and drop exactly the clauses
// containing v from the window. winIdx carries each window clause's
// original index; consumed clauses become the provenance of a constant
// (primary-output) resolution's circuit output.
func (t *transformer) commit(window []cnf.Clause, winIdx []int, v int, expr *logic.Expr) ([]cnf.Clause, []int) {
	t.res.Bindings = append(t.res.Bindings, Binding{Var: v, Expr: expr})

	// Partition first: clauses containing v are exactly the ones this
	// resolution consumes (in-place compaction is safe — the write index
	// never passes the read index).
	out := window[:0]
	outIdx := winIdx[:0]
	var consumed []int
	for k, c := range window {
		drop := false
		for _, l := range c {
			if l.Var() == v {
				drop = true
				break
			}
		}
		if drop {
			consumed = append(consumed, winIdx[k])
		} else {
			out = append(out, c)
			outIdx = append(outIdx, winIdx[k])
		}
	}

	if val, isConst := expr.IsConst(); isConst {
		// v is a primary output constrained to the constant. If v already
		// has a node this adds the constraint to it; otherwise v becomes a
		// free input carrying the constraint directly.
		id := t.nodeForOutput(v)
		t.res.Circuit.MarkOutput(id, val)
		t.res.OutputSources = append(t.res.OutputSources, consumed)
		t.kind[v] = PrimaryOutput
		t.classed[v] = true
		t.res.PrimaryOutputs = append(t.res.PrimaryOutputs, v)
	} else {
		env := map[int]circuit.NodeID{}
		for _, sv := range expr.Support() {
			env[sv] = t.nodeFor(sv)
		}
		id := t.res.Circuit.InstantiateExpr(expr, env)
		t.res.Circuit.Nodes[id].Var = v
		t.res.NodeOf[v] = id
		t.kind[v] = Intermediate
		t.classed[v] = true
		t.res.Intermediates = append(t.res.Intermediates, v)
	}
	return out, outIdx
}

// nodeForOutput returns v's node for an output constraint without forcing a
// PI classification for a fresh v.
func (t *transformer) nodeForOutput(v int) circuit.NodeID {
	if id, ok := t.res.NodeOf[v]; ok {
		return id
	}
	id := t.res.Circuit.AddInput(fmt.Sprintf("x%d", v))
	t.res.Circuit.Nodes[id].Var = v
	t.res.NodeOf[v] = id
	return id
}

// fallback converts an unresolvable window into an auxiliary output: the
// conjunction of its clauses, constrained to 1 (the paper's under-specified
// case, e.g. the trailing "10 0" unit clause in Fig. 1). The whole window
// is the output's clause provenance.
func (t *transformer) fallback(window []cnf.Clause, winIdx []int) {
	var terms []*logic.Expr
	for _, c := range window {
		var lits []*logic.Expr
		for _, l := range c {
			lits = append(lits, logic.Lit(l.Var(), l.Positive()))
		}
		terms = append(terms, logic.Or(lits...))
	}
	expr := logic.And(terms...)
	if len(expr.Support()) <= 12 {
		expr = logic.Simplify(expr)
	}
	t.res.Bindings = append(t.res.Bindings, Binding{Var: 0, Expr: expr})
	t.res.Fallbacks++
	srcs := append([]int(nil), winIdx...)

	if val, isConst := expr.IsConst(); isConst {
		if !val {
			// The window is unsatisfiable; represent it faithfully with a
			// constant-0 node constrained to 1 so downstream consumers see
			// an unsatisfiable function rather than a silent drop.
			id := t.res.Circuit.AddConst(false)
			t.res.Circuit.MarkOutput(id, true)
			t.res.OutputSources = append(t.res.OutputSources, srcs)
		}
		return
	}
	env := map[int]circuit.NodeID{}
	for _, sv := range expr.Support() {
		env[sv] = t.nodeFor(sv)
	}
	id := t.res.Circuit.InstantiateExpr(expr, env)
	t.res.Circuit.MarkOutput(id, true)
	t.res.OutputSources = append(t.res.OutputSources, srcs)
}
