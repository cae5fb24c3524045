package bitblast

import (
	"fmt"

	"repro/internal/circuit"
)

// This file is the Program's serialization surface: a compiled verifier's
// clause plan is pure data (node indices + complement flags after constant
// resolution), so a codec can persist it and rebuild the Program without
// re-running New's constant resolution over the CNF — the expensive half
// of verifier construction on large formulas. See internal/core's GDSP
// problem codec, the only intended consumer.

// PlanLit is one compiled clause literal in exported form: a circuit node
// index and a complement flag (the blit type, exported).
type PlanLit struct {
	Node int32
	Neg  bool
}

// Plan returns the compiled clause plan and the unsat flag. The returned
// slices are fresh copies; mutating them does not affect the Program.
func (p *Program) Plan() ([][]PlanLit, bool) {
	clauses := make([][]PlanLit, len(p.clauses))
	for i, cl := range p.clauses {
		out := make([]PlanLit, len(cl))
		for j, l := range cl {
			out[j] = PlanLit{Node: l.node, Neg: l.neg}
		}
		clauses[i] = out
	}
	return clauses, p.unsat
}

// FromPlan rebuilds a Program from a previously exported clause plan over
// c. Every node index is validated against the circuit — a plan can cross
// a process boundary, so a malformed one must produce an error, never an
// out-of-range sweep. An unsat plan must carry no clauses (New resolves
// unsat to an empty plan), and no clause may be empty.
func FromPlan(c *circuit.Circuit, clauses [][]PlanLit, unsat bool) (*Program, error) {
	if c == nil {
		return nil, fmt.Errorf("bitblast: nil circuit")
	}
	if unsat && len(clauses) != 0 {
		return nil, fmt.Errorf("bitblast: unsat plan carries %d clauses", len(clauses))
	}
	p := &Program{circ: c, unsat: unsat}
	if len(clauses) == 0 {
		return p, nil
	}
	n := int32(len(c.Nodes))
	total := 0
	for _, cl := range clauses {
		total += len(cl)
	}
	flat := make([]blit, total)
	p.clauses = make([][]blit, len(clauses))
	for i, cl := range clauses {
		if len(cl) == 0 {
			return nil, fmt.Errorf("bitblast: clause %d of the plan is empty", i)
		}
		out := flat[:len(cl):len(cl)]
		flat = flat[len(cl):]
		for j, l := range cl {
			if l.Node < 0 || l.Node >= n {
				return nil, fmt.Errorf("bitblast: clause %d literal %d references node %d of %d", i, j, l.Node, n)
			}
			out[j] = blit{node: l.Node, neg: l.Neg}
		}
		p.clauses[i] = out
	}
	return p, nil
}
