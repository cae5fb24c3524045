package core

import (
	"fmt"

	"repro/internal/circuit"
)

// This file implements the production execution engine: a fused,
// register-allocated lowering of the extracted circuit that replaces the
// naive one-slot-per-op tape (program_test.go, kept as the
// differential-testing oracle). Three compile passes shrink the working
// set and the per-iteration instruction count (see DESIGN.md, "Execution
// engine"):
//
//  1. Inverter/constant fusion: NOT, BUF and constant nodes never become
//     tape ops. Each operand carries a complement flag resolved into one
//     of nine specialized kernels (AND/OR/XOR × {plain, ¬a, ¬a∧¬b} plus a
//     NOT kept only for complemented output roots), and constants fold
//     into their consumers at compile time. The fused kernels execute the
//     exact float sequence of the unfused composition, so forward values
//     are bit-identical to the naive tape.
//  2. Dead-code elimination: ops outside every output cone (gates feeding
//     only unconstrained paths) are dropped — their gradients are
//     identically zero, so the GD trajectory is unchanged.
//  3. Gradient register allocation: a liveness scan over the backward
//     schedule assigns adjoint storage from a reuse pool. An op's adjoint
//     is born at its last consumer's backward step and dies when its own
//     backward step reads it, so the adjoint working set is the tape's
//     live width, not its length. Every kernel re-zeroes the destination
//     adjoint in the same pass that consumes it, maintaining the
//     invariant that free registers hold zero — which is what lets the
//     engine skip the full-matrix adjoint clear the naive step paid every
//     iteration.
//
// Value slots are deliberately NOT reused across ops: reverse-mode
// backprop over a stored tape reads every operand value after the forward
// pass completes, so every value's live range crosses the forward/backward
// boundary and no two can share a slot. The engine bounds the value
// working set by tiling batch rows instead: each worker runs the whole
// fused pipeline over a small row tile from per-worker scratch, keeping
// slots × tile resident in cache regardless of batch size.

// eop enumerates the fused kernels. The N suffix complements operand a,
// NN complements both operands; exact-composition semantics are listed
// with each case in forwardTile.
type eop uint8

const (
	eAnd   eop = iota // d = a·b
	eAndN             // d = u·b,          u = 1−a
	eAndNN            // d = u·v,          u = 1−a, v = 1−b
	eOr               // d = a + b − ab
	eOrN              // d = u + b − ub
	eOrNN             // d = u + v − uv
	eXor              // d = a + b − 2ab
	eXorN             // d = u + b − 2ub
	eXorNN            // d = u + v − 2uv
	eNot              // d = 1 − a (complemented output roots only)
)

func (o eop) String() string {
	names := [...]string{"and", "and!a", "and!ab", "or", "or!a", "or!ab", "xor", "xor!a", "xor!ab", "not"}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("eop(%d)", uint8(o))
}

// einstr is one fused kernel application. dst/a/b index value slots; gd,
// ga, gb index gradient registers (gb = ga for eNot, which has no second
// operand).
type einstr struct {
	op         eop
	dst, a, b  int32
	gd, ga, gb int32
}

// eout is one constrained output: value slot, gradient register and
// target.
type eout struct {
	slot   int32
	greg   int32
	target float32
}

// engine is the compiled fused pipeline for one circuit.
type engine struct {
	numInputs int
	numSlots  int // value slots: inputs first, then live ops in tape order
	numGregs  int // gradient registers: inputs first, then the reuse pool
	code      []einstr
	outputs   []eout
	// constLoss is the per-row ℓ2 loss contributed by outputs that folded
	// to constants (e.g. an unsatisfiable fallback window); it carries no
	// gradient.
	constLoss float64
	// liveIn[i] reports whether input i can receive gradient (it feeds a
	// live op or is itself a constrained output). Dead inputs skip the
	// sigmoid embedding and the gradient read in the update.
	liveIn []bool
	// liveInList is the indices where liveIn is true, for branch-free
	// embedding loops.
	liveInList []int32
}

// compileEngine lowers a circuit into a fused engine.
func compileEngine(c *circuit.Circuit) *engine {
	n := len(c.Inputs)
	e := &engine{numInputs: n}

	type ref struct {
		isConst bool
		cval    bool
		slot    int32
		neg     bool
	}
	type rawOp struct {
		base eop // eAnd, eOr, eXor, or eNot
		a, b ref
	}
	var raw []rawOp
	emit := func(base eop, a, b ref) ref {
		raw = append(raw, rawOp{base: base, a: a, b: b})
		return ref{slot: int32(n + len(raw) - 1)}
	}
	constRef := func(v bool) ref { return ref{isConst: true, cval: v} }
	// fold applies compile-time constant folding; surviving ops reach the
	// tape with non-constant operands only.
	// mkNot materializes 1−slot as a real op (shared per slot). It is
	// needed only where a complement cannot ride a flag: complemented
	// output roots, and double complements — collapsing ¬¬x to x would be
	// exact in Boolean but not in float (the naive tape computes
	// 1−(1−x)), and bit-identity with the naive tape is the engine's
	// correctness contract.
	notCache := map[int32]int32{}
	mkNot := func(slot int32) int32 {
		if s, ok := notCache[slot]; ok {
			return s
		}
		r := emit(eNot, ref{slot: slot}, ref{slot: slot})
		notCache[slot] = r.slot
		return r.slot
	}
	flip := func(r ref) ref {
		switch {
		case r.isConst:
			r.cval = !r.cval
		case r.neg:
			r = ref{slot: mkNot(r.slot), neg: true}
		default:
			r.neg = true
		}
		return r
	}
	fold := func(base eop, a, b ref) ref {
		if a.isConst && b.isConst {
			switch base {
			case eAnd:
				return constRef(a.cval && b.cval)
			case eOr:
				return constRef(a.cval || b.cval)
			default:
				return constRef(a.cval != b.cval)
			}
		}
		if a.isConst {
			a, b = b, a
		}
		if b.isConst {
			switch base {
			case eAnd:
				if b.cval {
					return a
				}
				return constRef(false)
			case eOr:
				if b.cval {
					return constRef(true)
				}
				return a
			default: // xor with constant: identity or complement
				if b.cval {
					return flip(a)
				}
				return a
			}
		}
		return emit(base, a, b)
	}

	inputIdx := make(map[circuit.NodeID]int32, n)
	for i, id := range c.Inputs {
		inputIdx[id] = int32(i)
	}
	refs := make([]ref, len(c.Nodes))
	chain := func(base eop, fan []circuit.NodeID) ref {
		cur := refs[fan[0]]
		for i := 1; i < len(fan); i++ {
			cur = fold(base, cur, refs[fan[i]])
		}
		return cur
	}
	for id, nd := range c.Nodes {
		switch nd.Type {
		case circuit.Input:
			refs[id] = ref{slot: inputIdx[circuit.NodeID(id)]}
		case circuit.Const:
			refs[id] = constRef(nd.Val)
		case circuit.Buf:
			refs[id] = refs[nd.Fanin[0]]
		case circuit.Not:
			refs[id] = flip(refs[nd.Fanin[0]])
		case circuit.And:
			refs[id] = chain(eAnd, nd.Fanin)
		case circuit.Or:
			refs[id] = chain(eOr, nd.Fanin)
		case circuit.Xor:
			refs[id] = chain(eXor, nd.Fanin)
		case circuit.Nand:
			refs[id] = flip(chain(eAnd, nd.Fanin))
		case circuit.Nor:
			refs[id] = flip(chain(eOr, nd.Fanin))
		case circuit.Xnor:
			refs[id] = flip(chain(eXor, nd.Fanin))
		default:
			panic(fmt.Sprintf("core: unknown gate %v", nd.Type))
		}
	}

	// Outputs. Constant roots become a fixed loss term; complemented
	// roots keep an explicit NOT op (shared across outputs of the same
	// node) so the seeded adjoint follows the exact float path of the
	// naive tape.
	b2f := func(v bool) float32 {
		if v {
			return 1
		}
		return 0
	}
	for _, o := range c.Outputs {
		r := refs[o.Node]
		tgt := b2f(o.Target)
		if r.isConst {
			diff := float64(b2f(r.cval) - tgt)
			e.constLoss += diff * diff
			continue
		}
		slot := r.slot
		if r.neg {
			slot = mkNot(slot)
		}
		e.outputs = append(e.outputs, eout{slot: slot, target: tgt})
	}

	// Dead-code elimination: only ops in some output cone execute. Ops on
	// purely unconstrained paths receive zero adjoint, so dropping them
	// leaves the GD trajectory untouched.
	liveOp := make([]bool, len(raw))
	e.liveIn = make([]bool, n)
	var stack []int32
	markSlot := func(slot int32) {
		if slot < int32(n) {
			e.liveIn[slot] = true
			return
		}
		if !liveOp[slot-int32(n)] {
			liveOp[slot-int32(n)] = true
			stack = append(stack, slot-int32(n))
		}
	}
	for _, o := range e.outputs {
		markSlot(o.slot)
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		markSlot(raw[i].a.slot)
		if raw[i].base != eNot {
			markSlot(raw[i].b.slot)
		}
	}
	for i := int32(0); i < int32(n); i++ {
		if e.liveIn[i] {
			e.liveInList = append(e.liveInList, i)
		}
	}

	// Renumber live ops into compact value slots and select kernels. A
	// single complemented operand is swapped into position a; swapping is
	// exact because the kernels' adds and multiplies commute bitwise.
	newSlot := make([]int32, n+len(raw))
	ns := int32(n)
	for i := range raw {
		if liveOp[i] {
			newSlot[n+i] = ns
			ns++
		}
	}
	mapSlot := func(s int32) int32 {
		if s < int32(n) {
			return s
		}
		return newSlot[s]
	}
	e.numSlots = int(ns)
	for i, op := range raw {
		if !liveOp[i] {
			continue
		}
		a, b := op.a, op.b
		var k eop
		if op.base == eNot {
			k, b = eNot, a
		} else {
			switch {
			case a.neg && b.neg:
				k = op.base + 2 // eAndNN / eOrNN / eXorNN
			case a.neg || b.neg:
				if b.neg {
					a, b = b, a
				}
				k = op.base + 1 // eAndN / eOrN / eXorN
			default:
				k = op.base
			}
		}
		e.code = append(e.code, einstr{
			op: k, dst: newSlot[n+i], a: mapSlot(a.slot), b: mapSlot(b.slot),
		})
	}
	for oi := range e.outputs {
		e.outputs[oi].slot = mapSlot(e.outputs[oi].slot)
	}

	e.allocGradRegs()
	return e
}

// allocGradRegs runs the backward-schedule liveness scan. Inputs own the
// first numInputs registers (their adjoints are read by the V-update after
// the whole backward pass, so they never free). An op's adjoint register
// is allocated at its first backward-order write — a consumer's
// accumulation or the output seeding — and returns to the free pool when
// the op's own backward step reads (and re-zeroes) it.
func (e *engine) allocGradRegs() {
	n := int32(e.numInputs)
	gregOf := make([]int32, e.numSlots)
	for i := range gregOf {
		if int32(i) < n {
			gregOf[i] = int32(i)
		} else {
			gregOf[i] = -1
		}
	}
	next := n
	var free []int32
	alloc := func(slot int32) int32 {
		if g := gregOf[slot]; g >= 0 {
			return g
		}
		var g int32
		if len(free) > 0 {
			g = free[len(free)-1]
			free = free[:len(free)-1]
		} else {
			g = next
			next++
		}
		gregOf[slot] = g
		return g
	}
	for oi := range e.outputs {
		e.outputs[oi].greg = alloc(e.outputs[oi].slot)
	}
	for i := len(e.code) - 1; i >= 0; i-- {
		in := &e.code[i]
		gd := gregOf[in.dst]
		if gd < 0 {
			panic("core: dead op survived DCE")
		}
		in.gd = gd
		// The kernel re-zeroes gd as it reads it, so the register is free
		// for ops earlier in the tape — including this op's own operands.
		gregOf[in.dst] = -1
		free = append(free, gd)
		in.ga = alloc(in.a)
		if in.op == eNot {
			in.gb = in.ga
		} else {
			in.gb = alloc(in.b)
		}
	}
	e.numGregs = int(next)
}

// forwardTile evaluates the tape for nt rows of tile-strided scratch:
// vals[slot*tile+t] for t in [0, nt). Kernel bodies replicate the float
// sequences of the naive tape's op compositions exactly.
func (e *engine) forwardTile(vals []float32, tile, nt int) {
	for _, in := range e.code {
		d := vals[int(in.dst)*tile : int(in.dst)*tile+nt]
		a := vals[int(in.a)*tile : int(in.a)*tile+nt]
		if in.op == eNot {
			for t := range d {
				d[t] = 1 - a[t]
			}
			continue
		}
		b := vals[int(in.b)*tile : int(in.b)*tile+nt]
		switch in.op {
		case eAnd:
			for t := range d {
				d[t] = a[t] * b[t]
			}
		case eAndN:
			for t := range d {
				u := 1 - a[t]
				d[t] = u * b[t]
			}
		case eAndNN:
			for t := range d {
				u, v := 1-a[t], 1-b[t]
				d[t] = u * v
			}
		case eOr:
			for t := range d {
				d[t] = a[t] + b[t] - a[t]*b[t]
			}
		case eOrN:
			for t := range d {
				u := 1 - a[t]
				d[t] = u + b[t] - u*b[t]
			}
		case eOrNN:
			for t := range d {
				u, v := 1-a[t], 1-b[t]
				d[t] = u + v - u*v
			}
		case eXor:
			for t := range d {
				d[t] = a[t] + b[t] - 2*a[t]*b[t]
			}
		case eXorN:
			for t := range d {
				u := 1 - a[t]
				d[t] = u + b[t] - 2*u*b[t]
			}
		case eXorNN:
			for t := range d {
				u, v := 1-a[t], 1-b[t]
				d[t] = u + v - 2*u*v
			}
		}
	}
}

// backwardTile accumulates adjoints in reverse tape order. Each kernel
// reads its destination adjoint and re-zeroes it in the same loop,
// maintaining the all-free-registers-are-zero invariant that replaces the
// naive engine's full adjoint clear. Register aliasing (a freed gd reused
// as ga/gb of the same op) is safe because the read-zero-accumulate
// sequence completes per element.
func (e *engine) backwardTile(vals, grads []float32, tile, nt int) {
	for i := len(e.code) - 1; i >= 0; i-- {
		in := e.code[i]
		gd := grads[int(in.gd)*tile : int(in.gd)*tile+nt]
		ga := grads[int(in.ga)*tile : int(in.ga)*tile+nt]
		a := vals[int(in.a)*tile : int(in.a)*tile+nt]
		if in.op == eNot {
			for t := range gd {
				g := gd[t]
				gd[t] = 0
				ga[t] -= g
			}
			continue
		}
		b := vals[int(in.b)*tile : int(in.b)*tile+nt]
		gb := grads[int(in.gb)*tile : int(in.gb)*tile+nt]
		switch in.op {
		case eAnd:
			for t := range gd {
				g := gd[t]
				gd[t] = 0
				ga[t] += g * b[t]
				gb[t] += g * a[t]
			}
		case eAndN:
			for t := range gd {
				g := gd[t]
				gd[t] = 0
				ga[t] -= g * b[t]
				gb[t] += g * (1 - a[t])
			}
		case eAndNN:
			for t := range gd {
				g := gd[t]
				gd[t] = 0
				ga[t] -= g * (1 - b[t])
				gb[t] -= g * (1 - a[t])
			}
		case eOr:
			for t := range gd {
				g := gd[t]
				gd[t] = 0
				ga[t] += g * (1 - b[t])
				gb[t] += g * (1 - a[t])
			}
		case eOrN:
			for t := range gd {
				g := gd[t]
				gd[t] = 0
				u := 1 - a[t]
				ga[t] -= g * (1 - b[t])
				gb[t] += g * (1 - u)
			}
		case eOrNN:
			for t := range gd {
				g := gd[t]
				gd[t] = 0
				u, v := 1-a[t], 1-b[t]
				ga[t] -= g * (1 - v)
				gb[t] -= g * (1 - u)
			}
		case eXor:
			for t := range gd {
				g := gd[t]
				gd[t] = 0
				ga[t] += g * (1 - 2*b[t])
				gb[t] += g * (1 - 2*a[t])
			}
		case eXorN:
			for t := range gd {
				g := gd[t]
				gd[t] = 0
				u := 1 - a[t]
				ga[t] -= g * (1 - 2*b[t])
				gb[t] += g * (1 - 2*u)
			}
		case eXorNN:
			for t := range gd {
				g := gd[t]
				gd[t] = 0
				u, v := 1-a[t], 1-b[t]
				ga[t] -= g * (1 - 2*v)
				gb[t] -= g * (1 - 2*u)
			}
		}
	}
}

// OpCount returns the number of fused kernel applications per iteration.
func (e *engine) OpCount() int { return len(e.code) }
