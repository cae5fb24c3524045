// Package bitblast evaluates an extracted circuit and its originating CNF
// on packed uint64 lanes: each word carries 64 candidate assignments (one
// per bit), so one gate evaluation or clause check covers 64 batch rows.
// The gradient-descent sampler hardens its learned soft inputs directly
// into packed columns and verifies a whole batch with word-level sweeps
// instead of per-row Circuit.Eval + Formula.Sat — the per-row path remains
// as the differential-testing oracle. See DESIGN.md ("Bit-parallel
// verification").
package bitblast

import (
	"fmt"
	"unsafe"

	"repro/internal/circuit"
	"repro/internal/cnf"
)

// blit is a compiled CNF literal: a circuit node index and a complement
// flag.
type blit struct {
	node int32
	neg  bool
}

// Program is a compiled bit-parallel verifier for one (circuit, CNF) pair.
// It is immutable after New; obtain per-goroutine scratch with NewEval.
type Program struct {
	circ *circuit.Circuit
	// lits holds the clause plan after compile-time resolution, one clause
	// after another: clauses satisfied by a pinned or constant variable are
	// dropped, literals it falsifies are removed. Clause i is
	// lits[starts[i]:starts[i+1]].
	lits   []blit
	starts []int32
	// unsat is set when some clause lost every literal to that resolution
	// (or a pin contradicts a constant node): no row satisfies the CNF, so
	// Sweep reports zero valid lanes.
	unsat bool
}

// New compiles a verifier for f over circuit c. nodeOf maps every CNF
// variable 1..NumVars to its circuit node (extract.Result.NodeOf); pins
// are assumption literals resolved at compile time, nil for an
// unconditioned problem. A variable that is pinned, or whose node is a
// constant, is fixed before the sweep: its literals drop the clauses they
// satisfy and drop out of the ones they falsify, pins taking precedence
// over constants. Each pin on a live node adds a unit clause, so every
// candidate row is held to it.
func New(c *circuit.Circuit, nodeOf map[int]circuit.NodeID, f *cnf.Formula, pins []cnf.Lit) *Program {
	if len(nodeOf) != f.NumVars {
		panic(fmt.Sprintf("bitblast: node map covers %d of %d variables", len(nodeOf), f.NumVars))
	}
	// Resolve every variable once: the node its literals sweep, or -1 with
	// the value it is fixed at.
	node := make([]int32, f.NumVars+1)
	val := make([]bool, f.NumVars+1)
	for v, id := range nodeOf {
		if nd := c.Nodes[id]; nd.Type == circuit.Const {
			node[v], val[v] = -1, nd.Val
		} else {
			node[v] = int32(id)
		}
	}
	for _, l := range pins {
		node[l.Var()], val[l.Var()] = -1, l.Positive()
	}
	total := len(pins)
	for _, cl := range f.Clauses {
		total += len(cl)
	}
	p := &Program{
		circ:   c,
		lits:   make([]blit, 0, total),
		starts: make([]int32, 1, len(f.Clauses)+len(pins)+1),
	}
	for _, cl := range f.Clauses {
		lo, sat := len(p.lits), false
		for _, l := range cl {
			v := l.Var()
			if id := node[v]; id >= 0 {
				p.lits = append(p.lits, blit{node: id, neg: !l.Positive()})
			} else if l.Sat(val[v]) {
				sat = true
				break
			}
		}
		switch {
		case sat:
			p.lits = p.lits[:lo]
		case len(p.lits) == lo:
			return &Program{circ: c, unsat: true}
		default:
			p.starts = append(p.starts, int32(len(p.lits)))
		}
	}
	for _, l := range pins {
		id := nodeOf[l.Var()]
		if nd := c.Nodes[id]; nd.Type == circuit.Const {
			if nd.Val != l.Positive() {
				return &Program{circ: c, unsat: true}
			}
			continue
		}
		p.lits = append(p.lits, blit{node: int32(id), neg: !l.Positive()})
		p.starts = append(p.starts, int32(len(p.lits)))
	}
	return p
}

// Bytes returns the heap the compiled clause plan retains: the literal
// slab and the clause starts at their allocated capacity.
func (p *Program) Bytes() int64 {
	return int64(cap(p.lits))*int64(unsafe.Sizeof(blit{})) + int64(cap(p.starts))*4
}

// sweepWidth is how many packed words one pass over the node/clause tape
// evaluates: 4 words = 256 candidate lanes per pass. The unrolled kernels
// keep 4 independent accumulators per gate, so the per-node switch
// dispatch, fanin-slice iteration and clause-literal walk are amortized
// 4× and the accumulators schedule as independent instruction streams.
const sweepWidth = 4

// Eval is reusable per-goroutine scratch for a Program.
type Eval struct {
	prog *Program
	vals []uint64 // sweepWidth packed words per circuit node, node-major
}

// NewEval allocates scratch for word-level sweeps over p.
func (p *Program) NewEval() *Eval {
	return &Eval{prog: p, vals: make([]uint64, len(p.circ.Nodes)*sweepWidth)}
}

// ScratchBytes returns the resident size of one Eval's scratch — the
// per-worker verifier cost a session's memory model charges for each
// device worker.
func (p *Program) ScratchBytes() int64 {
	return int64(len(p.circ.Nodes)) * sweepWidth * 8
}

// Sweep evaluates the circuit on packed input columns and checks every
// CNF clause for the words w in [lo, hi) with mask[w] != 0 (every word of
// the range when mask is nil), writing one validity mask word per swept
// word: bit r of valid[w] is set iff the full assignment induced by lane r
// of word w satisfies the formula. cols holds one packed column per
// primary input (in circuit input order), each at least hi words long.
// Lanes beyond the caller's batch carry whatever bits the caller packed
// there — mask them off in valid before use.
//
// A non-nil plan also extracts projected signatures in the same sweep: it
// maps projection variables to circuit nodes
// (extract.Result.ProjectionNodes), and bit r of proj[k][w] becomes lane
// r's value for the k-th projection variable.
//
// Words outside the range, or with mask[w] == 0, keep their valid and
// proj words untouched. A lane's validity and signature are pure functions
// of its packed bits, so the continuous-batch scheduler keeps both across
// sweeps, marks every changed lane's word in mask, and sweeps each worker's
// tile range with that worker's own Eval. Dirty words are gathered into
// groups of sweepWidth, so a sparse mask still fills wide passes.
//
// The sweep is word-major: every node and clause is evaluated for one
// group before the next, so the working set is sweepWidth uint64s per node
// regardless of batch size. Sweep performs no allocations.
func (e *Eval) Sweep(cols [][]uint64, lo, hi int, mask, valid []uint64, plan []int32, proj [][]uint64) {
	p := e.prog
	if len(cols) != len(p.circ.Inputs) {
		panic(fmt.Sprintf("bitblast: got %d input columns for %d inputs", len(cols), len(p.circ.Inputs)))
	}
	var ws [sweepWidth]int
	k := 0
	for w := lo; w < hi; w++ {
		if mask != nil && mask[w] == 0 {
			continue
		}
		if p.unsat {
			valid[w] = 0
			for j := range plan {
				proj[j][w] = 0
			}
			continue
		}
		ws[k] = w
		k++
		if k == sweepWidth {
			e.flushGroup(cols, &ws, sweepWidth, valid, plan, proj)
			k = 0
		}
	}
	if k > 0 {
		e.flushGroup(cols, &ws, k, valid, plan, proj)
	}
}

// flushGroup runs one wide pass over the k (1..sweepWidth) gathered words
// ws[0..k-1]: node evaluation, the clause sweep, the validity store, and —
// when plan is non-nil — the projected-signature store.
func (e *Eval) flushGroup(cols [][]uint64, ws *[sweepWidth]int, k int, valid []uint64, plan []int32, proj [][]uint64) {
	e.evalWords(cols, ws, k)
	m0, m1, m2, m3 := e.checkWords()
	switch k {
	case 4:
		valid[ws[3]] = m3
		fallthrough
	case 3:
		valid[ws[2]] = m2
		fallthrough
	case 2:
		valid[ws[1]] = m1
		fallthrough
	default:
		valid[ws[0]] = m0
	}
	if plan != nil {
		e.projectWords(plan, proj, ws, k)
	}
}

// projectWords gathers the packed projected signatures of the k gathered
// words from the node values computed by evalWords.
func (e *Eval) projectWords(plan []int32, proj [][]uint64, ws *[sweepWidth]int, k int) {
	for pk, nd := range plan {
		col := proj[pk]
		b := int(nd) * sweepWidth
		for j := 0; j < k; j++ {
			col[ws[j]] = e.vals[b+j]
		}
	}
}

// evalWords computes every node's packed values for the k (1..sweepWidth)
// gathered input words ws[0..k-1] in one unrolled pass. Short groups pad by
// repeating the last real word, so the body is branch-free over lanes: the
// duplicate results are recomputed and simply never stored.
func (e *Eval) evalWords(cols [][]uint64, ws *[sweepWidth]int, k int) {
	c := e.prog.circ
	vals := e.vals
	w0 := ws[0]
	w1, w2, w3 := w0, w0, w0
	if k > 1 {
		w1 = ws[1]
		w2, w3 = w1, w1
	}
	if k > 2 {
		w2 = ws[2]
		w3 = w2
	}
	if k > 3 {
		w3 = ws[3]
	}
	for i, id := range c.Inputs {
		col := cols[i]
		b := int(id) * sweepWidth
		vals[b] = col[w0]
		vals[b+1] = col[w1]
		vals[b+2] = col[w2]
		vals[b+3] = col[w3]
	}
	for id, nd := range c.Nodes {
		b := id * sweepWidth
		switch nd.Type {
		case circuit.Input:
			// loaded above
		case circuit.Const:
			v := uint64(0)
			if nd.Val {
				v = ^uint64(0)
			}
			vals[b] = v
			vals[b+1] = v
			vals[b+2] = v
			vals[b+3] = v
		case circuit.Buf:
			f := int(nd.Fanin[0]) * sweepWidth
			vals[b] = vals[f]
			vals[b+1] = vals[f+1]
			vals[b+2] = vals[f+2]
			vals[b+3] = vals[f+3]
		case circuit.Not:
			f := int(nd.Fanin[0]) * sweepWidth
			vals[b] = ^vals[f]
			vals[b+1] = ^vals[f+1]
			vals[b+2] = ^vals[f+2]
			vals[b+3] = ^vals[f+3]
		case circuit.And, circuit.Nand:
			v0, v1, v2, v3 := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
			for _, f := range nd.Fanin {
				fb := int(f) * sweepWidth
				v0 &= vals[fb]
				v1 &= vals[fb+1]
				v2 &= vals[fb+2]
				v3 &= vals[fb+3]
			}
			if nd.Type == circuit.Nand {
				v0, v1, v2, v3 = ^v0, ^v1, ^v2, ^v3
			}
			vals[b] = v0
			vals[b+1] = v1
			vals[b+2] = v2
			vals[b+3] = v3
		case circuit.Or, circuit.Nor:
			v0, v1, v2, v3 := uint64(0), uint64(0), uint64(0), uint64(0)
			for _, f := range nd.Fanin {
				fb := int(f) * sweepWidth
				v0 |= vals[fb]
				v1 |= vals[fb+1]
				v2 |= vals[fb+2]
				v3 |= vals[fb+3]
			}
			if nd.Type == circuit.Nor {
				v0, v1, v2, v3 = ^v0, ^v1, ^v2, ^v3
			}
			vals[b] = v0
			vals[b+1] = v1
			vals[b+2] = v2
			vals[b+3] = v3
		case circuit.Xor, circuit.Xnor:
			v0, v1, v2, v3 := uint64(0), uint64(0), uint64(0), uint64(0)
			for _, f := range nd.Fanin {
				fb := int(f) * sweepWidth
				v0 ^= vals[fb]
				v1 ^= vals[fb+1]
				v2 ^= vals[fb+2]
				v3 ^= vals[fb+3]
			}
			if nd.Type == circuit.Xnor {
				v0, v1, v2, v3 = ^v0, ^v1, ^v2, ^v3
			}
			vals[b] = v0
			vals[b+1] = v1
			vals[b+2] = v2
			vals[b+3] = v3
		}
	}
}

// checkWords ANDs all clause masks over the current group's node values,
// returning one satisfaction mask per gathered word. The early exit fires
// only when all four lanes are dead.
func (e *Eval) checkWords() (uint64, uint64, uint64, uint64) {
	s0, s1, s2, s3 := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
	vals, lits, starts := e.vals, e.prog.lits, e.prog.starts
	j := 0
	for _, end := range starts[1:] {
		c0, c1, c2, c3 := uint64(0), uint64(0), uint64(0), uint64(0)
		// An index walk, not a range over lits[lo:end]: re-slicing per
		// clause costs checkWords about a fifth of its time.
		for ; j < int(end); j++ {
			l := lits[j]
			b := int(l.node) * sweepWidth
			v0, v1, v2, v3 := vals[b], vals[b+1], vals[b+2], vals[b+3]
			if l.neg {
				v0, v1, v2, v3 = ^v0, ^v1, ^v2, ^v3
			}
			c0 |= v0
			c1 |= v1
			c2 |= v2
			c3 |= v3
		}
		s0 &= c0
		s1 &= c1
		s2 &= c2
		s3 &= c3
		if s0|s1|s2|s3 == 0 {
			return 0, 0, 0, 0
		}
	}
	return s0, s1, s2, s3
}
