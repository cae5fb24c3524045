// Package bitblast evaluates an extracted circuit and its originating CNF
// on packed uint64 lanes: each word carries 64 candidate assignments (one
// per bit), so one gate evaluation or clause check covers 64 batch rows.
// The gradient-descent sampler hardens its learned soft inputs directly
// into packed columns and verifies a whole batch with word-level sweeps
// instead of per-row Circuit.Eval + Formula.Sat — the per-row path remains
// as the differential-testing oracle.
//
// Almost every clause of a Tseitin CNF is a gate definition, and the
// circuit extracted from it satisfies a gate definition by construction.
// New proves those clauses once, against the circuit it is given, and the
// sweep checks only the residual clauses — about one per constrained
// output. Every lane a sweep accepts still satisfies the whole CNF. See
// DESIGN.md ("Bit-parallel verification").
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
	// dropped, literals it falsifies are removed, and clauses the circuit
	// proves are dropped. Clause i is lits[starts[i]:starts[i+1]].
	lits   []blit
	starts []int32
	// The residual clauses' cone, the only nodes a sweep reads: ins lists
	// the positions in circ.Inputs of the cone's inputs, gates the cone's
	// other nodes (every literal node and its transitive fanin), both
	// ascending. See coneOrder.
	ins, gates []int32
	// unsat is set when some clause lost every literal to that resolution
	// (or a pin contradicts a constant node): no row satisfies the CNF, so
	// Sweep reports zero valid lanes.
	unsat bool
}

// New compiles a verifier for f over circuit c. nodeOf[v-1] is the circuit
// node of CNF variable v, for every v in 1..NumVars
// (extract.Result.NodeOf); pins are assumption literals resolved at
// compile time, nil for an unconditioned problem. A variable that is pinned, or whose node is a
// constant, is fixed before the sweep: its literals drop the clauses they
// satisfy and drop out of the ones they falsify, pins taking precedence
// over constants. Each pin on a live node adds a unit clause, so every
// candidate row is held to it. A clause the circuit proves (see prover) is
// dropped too: the plan keeps only the residual clauses, at exact size.
func New(c *circuit.Circuit, nodeOf []circuit.NodeID, f *cnf.Formula, pins []cnf.Lit) *Program {
	if len(nodeOf) != f.NumVars {
		panic(fmt.Sprintf("bitblast: node map covers %d of %d variables", len(nodeOf), f.NumVars))
	}
	// Resolve every variable once: the node its literals sweep, or -1 with
	// the value it is fixed at. Every node a variable maps to is a leaf of
	// the proof.
	node := make([]int32, f.NumVars+1)
	val := make([]bool, f.NumVars+1)
	pv := newProver(c)
	for i, id := range nodeOf {
		switch pv.kind[id] {
		case zeroNode, oneNode:
			node[i+1], val[i+1] = -1, pv.kind[id] == oneNode
		default:
			node[i+1] = int32(id)
			pv.kind[id] = leafNode
		}
	}
	for _, l := range pins {
		node[l.Var()], val[l.Var()] = -1, l.Positive()
	}
	// Clauses resolve straight into the slab; one that is satisfied or
	// proved is cut off again, so the slab only grows with the residual.
	var lits []blit
	starts := []int32{0}
	for _, cl := range f.Clauses {
		lo, sat, root := len(lits), false, int32(0)
		for _, l := range cl {
			v := l.Var()
			if id := node[v]; id >= 0 {
				lits = append(lits, blit{node: id, neg: !l.Positive()})
				root = max(root, id)
			} else if l.Sat(val[v]) {
				sat = true
				break
			}
		}
		switch {
		case len(lits) == lo && !sat:
			return &Program{circ: c, unsat: true}
		case sat || pv.proves(lits[lo:], root):
			lits = lits[:lo]
		default:
			starts = append(starts, int32(len(lits)))
		}
	}
	for _, l := range pins {
		id := nodeOf[l.Var()-1]
		if nd := &c.Nodes[id]; nd.Type == circuit.Const {
			if nd.Val != l.Positive() {
				return &Program{circ: c, unsat: true}
			}
			continue
		}
		lits = append(lits, blit{node: int32(id), neg: !l.Positive()})
		if pv.proves(lits[len(lits)-1:], int32(id)) {
			lits = lits[:len(lits)-1]
		} else {
			starts = append(starts, int32(len(lits)))
		}
	}
	// Bytes prices the plan by its capacity: allocate exactly what the
	// sweep reads.
	p := &Program{circ: c, lits: make([]blit, len(lits)), starts: make([]int32, len(starts))}
	copy(p.lits, lits)
	copy(p.starts, starts)
	p.ins, p.gates = p.coneOrder(nil)
	return p
}

// coneOrder returns the cone of the residual clauses' literal nodes and
// of the extra nodes: each node's transitive fanin is in it too. It is
// split as Program.ins and Program.gates are, at exact size. Every fanin
// precedes its fanout in the node array, which evalWords relies on too,
// so one descending pass closes the cone, and the gates in ascending
// order meet every fanin before its fanout.
func (p *Program) coneOrder(extra []int32) (ins, gates []int32) {
	c := p.circ
	in := make([]bool, len(c.Nodes))
	for _, l := range p.lits {
		in[l.node] = true
	}
	for _, id := range extra {
		in[id] = true
	}
	nins, ngates := 0, 0
	for id := len(c.Nodes) - 1; id >= 0; id-- {
		nd := &c.Nodes[id]
		switch {
		case !in[id]:
		case nd.Type == circuit.Input:
			nins++
		default:
			ngates++
			for _, f := range nd.Fanin {
				in[f] = true
			}
		}
	}
	ins, gates = make([]int32, 0, nins), make([]int32, 0, ngates)
	for i, id := range c.Inputs {
		if in[id] {
			ins = append(ins, int32(i))
		}
	}
	for id := range c.Nodes {
		if in[id] && c.Nodes[id].Type != circuit.Input {
			gates = append(gates, int32(id))
		}
	}
	return ins, gates
}

// maxLeaves and maxCone bound one proof: a cone's truth table over at most
// maxLeaves free leaves fits one uint64, and at most maxCone gates are
// evaluated on it. A larger cone leaves its clauses in the sweep.
const (
	maxLeaves = 6
	maxCone   = 64
)

// leafTable[i] is leaf i's column of the 64-row truth table: row r gives
// leaf i the value of bit i of r. With k ≤ 6 leaves, every assignment of
// them appears in rows 0..2^k-1 and the table repeats above, so a clause
// that holds on all 64 rows holds under every leaf assignment.
var leafTable = [maxLeaves]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// prover decides, clause by clause, whether the circuit satisfies a
// resolved clause under every input assignment, so the sweep need not
// check it. A clause's root is its highest literal node. The root's fanin
// cone is walked down to leaves — nodes that carry a CNF variable, and
// inputs — and to constants. When every other literal sits on one of
// those leaves, the cone is evaluated as a bit-parallel truth table with
// the leaves free, and the clause is proved if it holds on every row.
//
// Free leaves over-approximate the values a sweep can give them, so the
// proof is sound for whatever circuit it is given: a gate that does not
// compute what the CNF defines only keeps the clause in the sweep. A
// gate's clauses are consecutive in a Tseitin CNF, so the prover keeps
// the last root's cone and evaluates it once for the whole group.
type prover struct {
	c    *circuit.Circuit
	kind []uint8 // per node: gateNode, leafNode, or a constant
	// cone[id] is node id's truth table when cone[id].gen == gen, that is
	// when id is in the current root's cone.
	cone []coneNode
	gen  int32
	root int32 // root of the current cone, -1 before the first
	ok   bool  // the current cone fits maxLeaves and maxCone
	// Leaves and gates the current cone has used so far.
	leaves, gates int
}

// coneNode is one node's entry in the prover's current cone.
type coneNode struct {
	gen int32  // the cone it belongs to
	tt  uint64 // its truth table there
}

// Node kinds the cone walk tells apart.
const (
	gateNode uint8 = iota // evaluated from its fanins
	leafNode              // an input, or a node a CNF variable maps to
	zeroNode              // constant false
	oneNode               // constant true
)

func newProver(c *circuit.Circuit) *prover {
	pv := &prover{
		c:    c,
		kind: make([]uint8, len(c.Nodes)),
		cone: make([]coneNode, len(c.Nodes)),
		root: -1,
	}
	for id := range c.Nodes {
		switch nd := &c.Nodes[id]; {
		case nd.Type == circuit.Input:
			pv.kind[id] = leafNode
		case nd.Type == circuit.Const && nd.Val:
			pv.kind[id] = oneNode
		case nd.Type == circuit.Const:
			pv.kind[id] = zeroNode
		}
	}
	return pv
}

// proves reports whether the circuit satisfies the clause cl, whose
// highest literal node is r, under every input assignment.
func (pv *prover) proves(cl []blit, r int32) bool {
	if r != pv.root {
		pv.root = r
		pv.gen++
		pv.leaves, pv.gates = 0, 0
		var v uint64
		if v, pv.ok = pv.eval(r); pv.ok {
			pv.cone[r] = coneNode{pv.gen, v}
		}
	}
	if !pv.ok {
		return false
	}
	acc, gen, cone := uint64(0), pv.gen, pv.cone
	for _, l := range cl {
		n := cone[l.node]
		if n.gen != gen {
			return false
		}
		if l.neg {
			n.tt = ^n.tt
		}
		acc |= n.tt
	}
	return acc == ^uint64(0)
}

// value returns node id's truth table in the current cone, giving a leaf
// the next free leafTable column and evaluating a gate from its fanins on
// first visit. It reports false once the cone outgrows maxLeaves or
// maxCone.
func (pv *prover) value(id int32) (uint64, bool) {
	if n := pv.cone[id]; n.gen == pv.gen {
		return n.tt, true
	}
	var v uint64
	switch pv.kind[id] {
	case leafNode:
		if pv.leaves == maxLeaves {
			return 0, false
		}
		v = leafTable[pv.leaves]
		pv.leaves++
	case zeroNode: // v stays 0
	case oneNode:
		v = ^uint64(0)
	default:
		if pv.gates == maxCone {
			return 0, false
		}
		pv.gates++
		var ok bool
		if v, ok = pv.eval(id); !ok {
			return 0, false
		}
	}
	pv.cone[id] = coneNode{pv.gen, v}
	return v, true
}

// eval evaluates gate id on its fanins' truth tables with the sweep's
// semantics (evalWords). An input root is leaf 0. It reports false for a
// node type the sweep does not evaluate, or when a fanin's cone is too
// large.
func (pv *prover) eval(id int32) (uint64, bool) {
	nd := &pv.c.Nodes[id]
	if nd.Type == circuit.Input {
		pv.leaves++
		return leafTable[0], true
	}
	var v uint64
	switch nd.Type {
	case circuit.And, circuit.Nand:
		v = ^uint64(0)
		for _, f := range nd.Fanin {
			fv, ok := pv.value(int32(f))
			if !ok {
				return 0, false
			}
			v &= fv
		}
	case circuit.Buf, circuit.Not, circuit.Or, circuit.Nor:
		for _, f := range nd.Fanin {
			fv, ok := pv.value(int32(f))
			if !ok {
				return 0, false
			}
			v |= fv
		}
	case circuit.Xor, circuit.Xnor:
		for _, f := range nd.Fanin {
			fv, ok := pv.value(int32(f))
			if !ok {
				return 0, false
			}
			v ^= fv
		}
	default:
		return 0, false
	}
	if nd.Type == circuit.Not || nd.Type == circuit.Nand || nd.Type == circuit.Nor || nd.Type == circuit.Xnor {
		v = ^v
	}
	return v, true
}

// Bytes returns the heap the compiled clause plan retains: the literal
// slab, the clause starts and the cone order at their allocated capacity.
func (p *Program) Bytes() int64 {
	return int64(cap(p.lits))*int64(unsafe.Sizeof(blit{})) + int64(cap(p.starts)+cap(p.ins)+cap(p.gates))*4
}

// sweepWidth is how many packed words one pass over the node/clause tape
// evaluates: 4 words = 256 candidate lanes per pass. The unrolled kernels
// keep 4 independent accumulators per gate, so the per-node switch
// dispatch, fanin-slice iteration and clause-literal walk are amortized
// 4× and the accumulators schedule as independent instruction streams.
const sweepWidth = 4

// Eval is reusable per-goroutine scratch for a Program, bound to one
// projection plan.
type Eval struct {
	prog *Program
	plan []int32
	// The nodes a sweep evaluates: the Program's cone order, or under a
	// plan whose nodes reach outside it, the order of both cones.
	ins, gates []int32
	vals       []uint64 // sweepWidth packed words per circuit node, node-major
}

// NewEval allocates scratch for word-level sweeps over p. A non-nil plan
// makes every Sweep also extract projected signatures: it maps projection
// variables to circuit nodes (extract.Result.ProjectionNodes). The sweep
// evaluates only the cone of the residual clauses and the plan's nodes;
// when the plan's cones lie inside the residual one, the Eval shares the
// Program's order, and otherwise it holds its own.
func (p *Program) NewEval(plan []int32) *Eval {
	e := &Eval{prog: p, plan: plan, ins: p.ins, gates: p.gates, vals: make([]uint64, len(p.circ.Nodes)*sweepWidth)}
	if len(plan) > 0 {
		if ins, gates := p.coneOrder(plan); len(ins) != len(p.ins) || len(gates) != len(p.gates) {
			e.ins, e.gates = ins, gates
		}
	}
	return e
}

// ScratchBytes returns the resident size of one Eval's scratch — the
// per-worker verifier cost a session's memory model charges for each
// device worker. Under a projection (projected) it includes the most an
// Eval's own cone order can hold: every node.
func (p *Program) ScratchBytes(projected bool) int64 {
	b := int64(len(p.circ.Nodes)) * sweepWidth * 8
	if projected {
		b += int64(len(p.circ.Nodes)) * 4
	}
	return b
}

// Sweep evaluates the circuit's cone on packed input columns and checks
// the residual clauses for the words w in [lo, hi) with mask[w] != 0
// (every word of the range when mask is nil), writing one validity mask
// word per swept word: bit r of valid[w] is set iff the full assignment
// induced by lane r of word w satisfies the formula. cols holds one
// packed column per primary input (in circuit input order), each at least
// hi words long.
// Lanes beyond the caller's batch carry whatever bits the caller packed
// there — mask them off in valid before use.
//
// Under the Eval's projection plan, the same sweep also extracts
// projected signatures: bit r of proj[k][w] becomes lane r's value for
// the k-th projection variable. proj is not read without a plan.
//
// Words outside the range, or with mask[w] == 0, keep their valid and
// proj words untouched. A lane's validity and signature are pure functions
// of its packed bits, so the continuous-batch scheduler keeps both across
// sweeps, marks every changed lane's word in mask, and sweeps each worker's
// tile range with that worker's own Eval. Dirty words are gathered into
// groups of sweepWidth, so a sparse mask still fills wide passes.
//
// The sweep is word-major: every cone node and clause is evaluated for one
// group before the next, so the working set is sweepWidth uint64s per node
// regardless of batch size. Nodes outside the cone are never read or
// written. Sweep performs no allocations.
func (e *Eval) Sweep(cols [][]uint64, lo, hi int, mask, valid []uint64, proj [][]uint64) {
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
			for j := range e.plan {
				proj[j][w] = 0
			}
			continue
		}
		ws[k] = w
		k++
		if k == sweepWidth {
			e.flushGroup(cols, &ws, sweepWidth, valid, proj)
			k = 0
		}
	}
	if k > 0 {
		e.flushGroup(cols, &ws, k, valid, proj)
	}
}

// flushGroup runs one wide pass over the k (1..sweepWidth) gathered words
// ws[0..k-1]: node evaluation, the clause sweep, the validity store, and —
// under a plan — the projected-signature store.
func (e *Eval) flushGroup(cols [][]uint64, ws *[sweepWidth]int, k int, valid []uint64, proj [][]uint64) {
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
	if e.plan != nil {
		e.projectWords(proj, ws, k)
	}
}

// projectWords gathers the packed projected signatures of the k gathered
// words from the node values computed by evalWords.
func (e *Eval) projectWords(proj [][]uint64, ws *[sweepWidth]int, k int) {
	for pk, nd := range e.plan {
		col := proj[pk]
		b := int(nd) * sweepWidth
		for j := 0; j < k; j++ {
			col[ws[j]] = e.vals[b+j]
		}
	}
}

// evalWords computes the packed values of the Eval's cone nodes for the k
// (1..sweepWidth) gathered input words ws[0..k-1] in one unrolled pass. Short groups pad by
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
	for _, i := range e.ins {
		col := cols[i]
		b := int(c.Inputs[i]) * sweepWidth
		vals[b] = col[w0]
		vals[b+1] = col[w1]
		vals[b+2] = col[w2]
		vals[b+3] = col[w3]
	}
	for _, id := range e.gates {
		nd := &c.Nodes[id]
		b := int(id) * sweepWidth
		switch nd.Type {
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
