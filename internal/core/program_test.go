package core

import (
	"fmt"

	"repro/internal/circuit"
)

// This file is the naive tape interpreter: one value slot per two-input
// op, no fusion, full-matrix forward/backward. The fused,
// register-allocated engine in engine.go replaced it on the production
// path, so it lives in a test file as the differential-testing oracle:
// its kernels transcribe the paper's Table I one op at a time, which makes
// it easy to audit, and the engine is required to reproduce its forward
// values bit-for-bit (see engine_test.go).

// opcode enumerates the probabilistic kernel operations. Multi-input gates
// are decomposed into chains of two-input ops at compile time, so the
// kernels match Table I exactly.
type opcode uint8

const (
	opConst opcode = iota // dst = cval
	opBuf                 // dst = a
	opNot                 // dst = 1 - a
	opAnd                 // dst = a*b
	opOr                  // dst = a + b - a*b
	opXor                 // dst = a + b - 2ab
)

func (o opcode) String() string {
	switch o {
	case opConst:
		return "const"
	case opBuf:
		return "buf"
	case opNot:
		return "not"
	case opAnd:
		return "and"
	case opOr:
		return "or"
	case opXor:
		return "xor"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

type instr struct {
	op   opcode
	dst  int32
	a, b int32
	cval float32
}

// program is the compiled probabilistic form of a circuit: a straight-line
// tape of two-input kernels over value slots. Slots 0..NumInputs-1 are the
// primary inputs; outputs lists the slot and target for each constrained
// output.
type program struct {
	numSlots int
	inputs   []int32 // slot of each primary input (identity mapping kept explicit)
	code     []instr
	outputs  []progOutput
}

type progOutput struct {
	slot   int32
	target float32
}

// compile lowers a circuit into a program. Gate decomposition: an n-input
// associative gate becomes a left-to-right chain of 2-input ops; NAND/NOR/
// XNOR append a final NOT.
func compile(c *circuit.Circuit) *program {
	p := &program{}
	slotOf := make([]int32, len(c.Nodes))
	next := int32(0)
	alloc := func() int32 { s := next; next++; return s }

	// Inputs claim the first slots in declaration order.
	for _, id := range c.Inputs {
		s := alloc()
		slotOf[id] = s
		p.inputs = append(p.inputs, s)
	}
	chain := func(op opcode, fanin []circuit.NodeID) int32 {
		cur := slotOf[fanin[0]]
		for i := 1; i < len(fanin); i++ {
			dst := alloc()
			p.code = append(p.code, instr{op: op, dst: dst, a: cur, b: slotOf[fanin[i]]})
			cur = dst
		}
		return cur
	}
	for id, nd := range c.Nodes {
		switch nd.Type {
		case circuit.Input:
			// slot assigned above
		case circuit.Const:
			s := alloc()
			v := float32(0)
			if nd.Val {
				v = 1
			}
			p.code = append(p.code, instr{op: opConst, dst: s, cval: v})
			slotOf[id] = s
		case circuit.Buf:
			// Reuse the fanin slot; a copy is unnecessary because slots are
			// written exactly once.
			slotOf[id] = slotOf[nd.Fanin[0]]
		case circuit.Not:
			s := alloc()
			p.code = append(p.code, instr{op: opNot, dst: s, a: slotOf[nd.Fanin[0]]})
			slotOf[id] = s
		case circuit.And:
			slotOf[id] = chain(opAnd, nd.Fanin)
		case circuit.Or:
			slotOf[id] = chain(opOr, nd.Fanin)
		case circuit.Xor:
			slotOf[id] = chain(opXor, nd.Fanin)
		case circuit.Nand, circuit.Nor, circuit.Xnor:
			var inner opcode
			switch nd.Type {
			case circuit.Nand:
				inner = opAnd
			case circuit.Nor:
				inner = opOr
			default:
				inner = opXor
			}
			cur := chain(inner, nd.Fanin)
			s := alloc()
			p.code = append(p.code, instr{op: opNot, dst: s, a: cur})
			slotOf[id] = s
		default:
			panic(fmt.Sprintf("core: unknown gate %v", nd.Type))
		}
	}
	for _, o := range c.Outputs {
		tgt := float32(0)
		if o.Target {
			tgt = 1
		}
		p.outputs = append(p.outputs, progOutput{slot: slotOf[o.Node], target: tgt})
	}
	p.numSlots = int(next)
	return p
}

// OpCount returns the number of two-input probabilistic operations in the
// compiled tape (NOT counts as one kernel op here because it is executed;
// structural gate-equivalent accounting lives in circuit.OpCount2).
func (p *program) OpCount() int { return len(p.code) }

// forward evaluates the tape for batch rows [lo, hi). vals is slot-major:
// vals[slot*batch + row].
func (p *program) forward(vals []float32, batch, lo, hi int) {
	for _, in := range p.code {
		d := vals[int(in.dst)*batch : int(in.dst+1)*batch]
		switch in.op {
		case opConst:
			for r := lo; r < hi; r++ {
				d[r] = in.cval
			}
		case opBuf:
			a := vals[int(in.a)*batch : int(in.a+1)*batch]
			copy(d[lo:hi], a[lo:hi])
		case opNot:
			a := vals[int(in.a)*batch : int(in.a+1)*batch]
			for r := lo; r < hi; r++ {
				d[r] = 1 - a[r]
			}
		case opAnd:
			a := vals[int(in.a)*batch : int(in.a+1)*batch]
			b := vals[int(in.b)*batch : int(in.b+1)*batch]
			for r := lo; r < hi; r++ {
				d[r] = a[r] * b[r]
			}
		case opOr:
			a := vals[int(in.a)*batch : int(in.a+1)*batch]
			b := vals[int(in.b)*batch : int(in.b+1)*batch]
			for r := lo; r < hi; r++ {
				d[r] = a[r] + b[r] - a[r]*b[r]
			}
		case opXor:
			a := vals[int(in.a)*batch : int(in.a+1)*batch]
			b := vals[int(in.b)*batch : int(in.b+1)*batch]
			for r := lo; r < hi; r++ {
				d[r] = a[r] + b[r] - 2*a[r]*b[r]
			}
		}
	}
}

// backward accumulates adjoints for rows [lo, hi). grads must be zeroed for
// those rows except at output slots, which carry dL/dY = 2(Y − T). The
// derivative rules are the paper's Table I applied through the chain rule.
func (p *program) backward(vals, grads []float32, batch, lo, hi int) {
	for i := len(p.code) - 1; i >= 0; i-- {
		in := p.code[i]
		g := grads[int(in.dst)*batch : int(in.dst+1)*batch]
		switch in.op {
		case opConst:
			// no inputs
		case opBuf:
			ga := grads[int(in.a)*batch : int(in.a+1)*batch]
			for r := lo; r < hi; r++ {
				ga[r] += g[r]
			}
		case opNot:
			ga := grads[int(in.a)*batch : int(in.a+1)*batch]
			for r := lo; r < hi; r++ {
				ga[r] -= g[r]
			}
		case opAnd:
			a := vals[int(in.a)*batch : int(in.a+1)*batch]
			b := vals[int(in.b)*batch : int(in.b+1)*batch]
			ga := grads[int(in.a)*batch : int(in.a+1)*batch]
			gb := grads[int(in.b)*batch : int(in.b+1)*batch]
			for r := lo; r < hi; r++ {
				ga[r] += g[r] * b[r]
				gb[r] += g[r] * a[r]
			}
		case opOr:
			a := vals[int(in.a)*batch : int(in.a+1)*batch]
			b := vals[int(in.b)*batch : int(in.b+1)*batch]
			ga := grads[int(in.a)*batch : int(in.a+1)*batch]
			gb := grads[int(in.b)*batch : int(in.b+1)*batch]
			for r := lo; r < hi; r++ {
				ga[r] += g[r] * (1 - b[r])
				gb[r] += g[r] * (1 - a[r])
			}
		case opXor:
			a := vals[int(in.a)*batch : int(in.a+1)*batch]
			b := vals[int(in.b)*batch : int(in.b+1)*batch]
			ga := grads[int(in.a)*batch : int(in.a+1)*batch]
			gb := grads[int(in.b)*batch : int(in.b+1)*batch]
			for r := lo; r < hi; r++ {
				ga[r] += g[r] * (1 - 2*b[r])
				gb[r] += g[r] * (1 - 2*a[r])
			}
		}
	}
}
