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

	"repro/internal/circuit"
	"repro/internal/cnf"
)

// blit is a compiled CNF literal: a circuit node index and a complement
// flag. Literals of variables with no circuit node evaluate to constant
// false (positive polarity) or true (negative polarity) and are resolved
// at compile time, mirroring extract.Result.AssignmentFromInputs, which
// defaults nodeless variables to false.
type blit struct {
	node int32
	neg  bool
}

// Program is a compiled bit-parallel verifier for one (circuit, CNF) pair.
// It is immutable after New; obtain per-goroutine scratch with NewEval.
type Program struct {
	circ *circuit.Circuit
	// clauses lists the clause plan after constant resolution: clauses
	// made unconditionally true by a nodeless negative literal are
	// dropped, constant-false literals are removed.
	clauses [][]blit
	// unsat is set when some clause lost every literal to constant-false
	// resolution: no assignment reachable through the circuit satisfies
	// the CNF, so Verify reports zero valid lanes.
	unsat bool
}

// New compiles a verifier. nodeOf maps CNF variables to circuit nodes (the
// extract.Result.NodeOf table); variables absent from it are treated as
// constant false, matching AssignmentFromInputs.
func New(c *circuit.Circuit, nodeOf map[int]circuit.NodeID, f *cnf.Formula) *Program {
	p := &Program{circ: c}
	for _, cl := range f.Clauses {
		compiled := make([]blit, 0, len(cl))
		sat := false
		for _, l := range cl {
			id, ok := nodeOf[l.Var()]
			if !ok {
				if !l.Positive() {
					sat = true // ¬v with v defaulted false: always true
					break
				}
				continue // v defaulted false: drop the literal
			}
			compiled = append(compiled, blit{node: int32(id), neg: !l.Positive()})
		}
		if sat {
			continue
		}
		if len(compiled) == 0 {
			p.unsat = true
			p.clauses = nil
			return p
		}
		p.clauses = append(p.clauses, compiled)
	}
	return p
}

// NumClauses returns the number of clauses retained after constant
// resolution.
func (p *Program) NumClauses() int { return len(p.clauses) }

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

// Verify evaluates the circuit on packed input columns and checks every
// CNF clause, writing one validity mask word per input word: bit r of
// valid[w] is set iff the full assignment induced by lane r of word w
// satisfies the formula. cols holds one packed column per primary input
// (in circuit input order), each at least words long; valid must be at
// least words long. Lanes beyond the caller's batch carry whatever bits
// the caller packed there — mask them off in valid before use.
//
// The sweep is word-major: all nodes and clauses are evaluated for one
// word before moving to the next, so the working set is one uint64 per
// node regardless of batch size. Verify performs no allocations.
func (e *Eval) Verify(cols [][]uint64, words int, valid []uint64) {
	p := e.prog
	if len(cols) != len(p.circ.Inputs) {
		panic(fmt.Sprintf("bitblast: got %d input columns for %d inputs", len(cols), len(p.circ.Inputs)))
	}
	if p.unsat {
		for w := 0; w < words; w++ {
			valid[w] = 0
		}
		return
	}
	var ws [sweepWidth]int
	for w := 0; w < words; w += sweepWidth {
		k := words - w
		if k > sweepWidth {
			k = sweepWidth
		}
		for j := 0; j < k; j++ {
			ws[j] = w + j
		}
		e.flushGroup(cols, &ws, k, valid, nil, nil)
	}
}

// VerifyMasked is the incremental form of Verify used by the continuous-
// batch scheduler: it re-runs the node evaluation and clause sweep only for
// words w with mask[w] != 0 (words holding at least one lane whose packed
// bits changed since the caller's last sweep) and leaves valid[w] untouched
// for clean words. Because a lane's validity is a pure function of its
// packed bits, a caller that keeps valid[] across sweeps and marks every
// changed lane's word dirty reads exact results at a fraction of the full
// sweep's cost. Like Verify, it performs no allocations.
func (e *Eval) VerifyMasked(cols [][]uint64, words int, mask, valid []uint64) {
	e.VerifyMaskedRange(cols, 0, words, mask, valid)
}

// VerifyMaskedRange is VerifyMasked restricted to words [lo, hi) — the
// per-tile form the parallel scheduler uses: each worker sweeps only the
// word range its tiles own, with its own Eval scratch. Dirty words are
// gathered into groups of sweepWidth so a sparse mask still fills wide
// passes. No allocations.
func (e *Eval) VerifyMaskedRange(cols [][]uint64, lo, hi int, mask, valid []uint64) {
	p := e.prog
	if len(cols) != len(p.circ.Inputs) {
		panic(fmt.Sprintf("bitblast: got %d input columns for %d inputs", len(cols), len(p.circ.Inputs)))
	}
	if p.unsat {
		for w := lo; w < hi; w++ {
			if mask[w] != 0 {
				valid[w] = 0
			}
		}
		return
	}
	var ws [sweepWidth]int
	k := 0
	for w := lo; w < hi; w++ {
		if mask[w] == 0 {
			continue
		}
		ws[k] = w
		k++
		if k == sweepWidth {
			e.flushGroup(cols, &ws, sweepWidth, valid, nil, nil)
			k = 0
		}
	}
	if k > 0 {
		e.flushGroup(cols, &ws, k, valid, nil, nil)
	}
}

// VerifyProject is Verify plus projected-signature extraction in the same
// word sweep: alongside valid, it fills one packed projection column per
// plan entry — bit r of proj[k][w] is lane r's value for the k-th
// projection variable. plan maps projection variables to circuit nodes
// (extract.Result.ProjectionNodes); a negative entry is a nodeless
// variable, constant false by the AssignmentFromInputs convention. Each
// proj[k] must be at least words long. No allocations.
func (e *Eval) VerifyProject(cols [][]uint64, words int, valid []uint64, plan []int32, proj [][]uint64) {
	p := e.prog
	if len(cols) != len(p.circ.Inputs) {
		panic(fmt.Sprintf("bitblast: got %d input columns for %d inputs", len(cols), len(p.circ.Inputs)))
	}
	if p.unsat {
		for w := 0; w < words; w++ {
			valid[w] = 0
			for k := range plan {
				proj[k][w] = 0
			}
		}
		return
	}
	var ws [sweepWidth]int
	for w := 0; w < words; w += sweepWidth {
		k := words - w
		if k > sweepWidth {
			k = sweepWidth
		}
		for j := 0; j < k; j++ {
			ws[j] = w + j
		}
		e.flushGroup(cols, &ws, k, valid, plan, proj)
	}
}

// VerifyMaskedProject is the incremental form of VerifyProject: words with
// mask[w] == 0 keep both their cached validity and their cached projection
// columns (a lane's projected signature, like its validity, is a pure
// function of its packed bits). The continuous-batch scheduler's projected
// dedup relies on this caching contract. No allocations.
func (e *Eval) VerifyMaskedProject(cols [][]uint64, words int, mask, valid []uint64, plan []int32, proj [][]uint64) {
	e.VerifyMaskedProjectRange(cols, 0, words, mask, valid, plan, proj)
}

// VerifyMaskedProjectRange is VerifyMaskedProject restricted to words
// [lo, hi) — the per-tile form for parallel projected sessions. No
// allocations.
func (e *Eval) VerifyMaskedProjectRange(cols [][]uint64, lo, hi int, mask, valid []uint64, plan []int32, proj [][]uint64) {
	p := e.prog
	if len(cols) != len(p.circ.Inputs) {
		panic(fmt.Sprintf("bitblast: got %d input columns for %d inputs", len(cols), len(p.circ.Inputs)))
	}
	if p.unsat {
		for w := lo; w < hi; w++ {
			if mask[w] != 0 {
				valid[w] = 0
				for k := range plan {
					proj[k][w] = 0
				}
			}
		}
		return
	}
	var ws [sweepWidth]int
	k := 0
	for w := lo; w < hi; w++ {
		if mask[w] == 0 {
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
		if nd >= 0 {
			b := int(nd) * sweepWidth
			for j := 0; j < k; j++ {
				col[ws[j]] = e.vals[b+j]
			}
		} else {
			for j := 0; j < k; j++ {
				col[ws[j]] = 0
			}
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
	vals := e.vals
	for _, cl := range e.prog.clauses {
		c0, c1, c2, c3 := uint64(0), uint64(0), uint64(0), uint64(0)
		for _, l := range cl {
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

// Hash64 returns a SplitMix64-based hash of a packed bit vector — the
// shared dedup key for solution pools (core sampler and baselines).
// Callers must resolve 64-bit collisions with an exact comparison.
func Hash64(words []uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, x := range words {
		h ^= x
		h ^= h >> 30
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		h *= 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}
