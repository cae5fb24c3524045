package bitblast

import (
	"repro/internal/circuit"
	"repro/internal/cnf"
)

// NewFull compiles the full-CNF plan, the oracle the residual sweep is
// tested against: every clause of f over its variables' nodes and one
// unit clause per pin, with nothing resolved at compile time and nothing
// proved. A lane passes it exactly when its full assignment satisfies f
// and agrees with the pins, which is what New's plan accepts.
func NewFull(c *circuit.Circuit, nodeOf []circuit.NodeID, f *cnf.Formula, pins []cnf.Lit) *Program {
	p := &Program{circ: c, starts: []int32{0}}
	add := func(cl []cnf.Lit) {
		for _, l := range cl {
			p.lits = append(p.lits, blit{node: int32(nodeOf[l.Var()-1]), neg: !l.Positive()})
		}
		p.starts = append(p.starts, int32(len(p.lits)))
	}
	for _, cl := range f.Clauses {
		add(cl)
	}
	for _, l := range pins {
		add([]cnf.Lit{l})
	}
	p.ins, p.gates = p.coneOrder(nil)
	return p
}

// SlabCaps reports the clause plan's lengths and capacities: literals,
// then clause starts.
func (p *Program) SlabCaps() (lits, litsCap, starts, startsCap int) {
	return len(p.lits), cap(p.lits), len(p.starts), cap(p.starts)
}

// Clauses returns how many clauses the sweep checks.
func (p *Program) Clauses() int {
	return max(len(p.starts)-1, 0)
}

// InCone reports whether a sweep with e evaluates node id: a cone input
// or a cone gate.
func (e *Eval) InCone(id circuit.NodeID) bool {
	for _, i := range e.ins {
		if e.prog.circ.Inputs[i] == id {
			return true
		}
	}
	for _, g := range e.gates {
		if g == int32(id) {
			return true
		}
	}
	return false
}

// ConeSize returns how many nodes a sweep with e evaluates.
func (e *Eval) ConeSize() int { return len(e.ins) + len(e.gates) }

// SharesOrder reports whether e evaluates the Program's own cone order.
func (e *Eval) SharesOrder() bool {
	return len(e.gates) == len(e.prog.gates) && (len(e.gates) == 0 || &e.gates[0] == &e.prog.gates[0])
}

// NodeVals returns node id's sweepWidth packed words in e's scratch.
func (e *Eval) NodeVals(id circuit.NodeID) []uint64 {
	return e.vals[int(id)*sweepWidth : (int(id)+1)*sweepWidth]
}
