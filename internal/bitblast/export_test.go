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
