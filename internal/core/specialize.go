package core

import (
	"errors"
	"fmt"

	"repro/internal/bitblast"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/extract"
)

// Specialization conditions an already-compiled Problem on assumption
// literals without re-running the transformation — the expensive half of a
// compile. Pinned primary inputs become constant nodes and fold through
// the fused tape exactly like any other compile-time constant (the engine
// recompile is a pass over the existing circuit, not a fresh extraction);
// pinned derived variables become extra output constraints; the verify
// plan is re-derived from the CNF with the pins resolved, so satisfied
// clauses vanish from the sweep. The result is a first-class Problem: it
// serializes to a GDSP blob under its own assumption-folded key, snapshots
// and restores, and serves sessions like any cold-compiled artifact.

// ErrBadAssume marks an assumption set a Problem cannot be specialized
// under: out-of-range or contradictory literals, or a pin set that leaves
// the sampler no free primary inputs. Servers map it to a 400-class
// response (the request is malformed for this instance, the artifact is
// fine).
var ErrBadAssume = errors.New("core: bad assumptions")

// Assumptions returns the canonical assumption literals this problem was
// specialized under (nil for an unspecialized problem). The returned slice
// is a copy.
func (p *Problem) Assumptions() []cnf.Lit {
	if len(p.assume) == 0 {
		return nil
	}
	return append([]cnf.Lit(nil), p.assume...)
}

// Specialize conditions p on assumption literals, returning a new Problem
// keyed by cnf.AssumeKey(base, assume). The input problem is not modified
// and may itself be specialized — assumption sets merge (a contradiction
// across the sets is ErrBadAssume). Specializing with literals already
// pinned (or an empty set) returns p unchanged.
//
// Semantics: the specialized problem samples exactly the models of
// p.Formula().Condition(assume) that the base problem's circuit can
// reach. Pins on variables the transformation proved constant are honored
// through the verify plan — a pin contradicting such a constant yields a
// problem whose verifier accepts nothing (UNSAT under assumptions), not
// an error, matching what a SAT precheck would report.
func Specialize(p *Problem, assume []cnf.Lit) (*Problem, error) {
	canon := cnf.CanonicalAssume(assume)
	if err := cnf.ValidateAssumptions(p.formula.NumVars, canon); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadAssume, err)
	}
	merged := cnf.CanonicalAssume(append(append([]cnf.Lit(nil), p.assume...), canon...))
	if err := cnf.ValidateAssumptions(p.formula.NumVars, merged); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadAssume, err)
	}
	prev := make(map[cnf.Lit]bool, len(p.assume))
	for _, l := range p.assume {
		prev[l] = true
	}
	var fresh []cnf.Lit
	for _, l := range merged {
		if !prev[l] {
			fresh = append(fresh, l)
		}
	}
	if len(fresh) == 0 {
		return p, nil
	}

	ext := p.ext
	base := ext.Circuit
	nodes := append([]circuit.Node(nil), base.Nodes...)
	outputs := append([]circuit.Output(nil), base.Outputs...)
	srcs := append([][]int(nil), ext.OutputSources...)
	pinnedNode := make(map[circuit.NodeID]bool, len(fresh))
	for _, l := range fresh {
		id, ok := ext.NodeOf[l.Var()]
		if !ok {
			// No circuit support: enforced by the assignment override in
			// AssignmentFromInputs and resolved in the verify plan below.
			continue
		}
		switch nodes[id].Type {
		case circuit.Input:
			nd := nodes[id]
			nodes[id] = circuit.Node{Type: circuit.Const, Val: l.Positive(), Var: nd.Var, Name: nd.Name}
			pinnedNode[id] = true
		case circuit.Const:
			// The transformation proved this variable constant; a matching
			// pin is a no-op and a contradicting one makes the verify plan
			// unsat. Either way the plan derivation settles it.
		default:
			// Derived variable: constrain its gate to the pinned value. The
			// engine folds the constraint into the loss; provenance stays
			// empty so OutputWeights defaults the new output to weight 1.
			outputs = append(outputs, circuit.Output{Node: id, Target: l.Positive()})
			srcs = append(srcs, nil)
		}
	}

	inputs := make([]circuit.NodeID, 0, len(base.Inputs))
	for _, id := range base.Inputs {
		if !pinnedNode[id] {
			inputs = append(inputs, id)
		}
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("%w: assumptions pin every primary input (nothing left to sample)", ErrBadAssume)
	}
	pinnedVar := make(map[int]bool, len(merged))
	for _, l := range merged {
		pinnedVar[l.Var()] = true
	}
	pis := make([]int, 0, len(ext.PrimaryInputs))
	for _, v := range ext.PrimaryInputs {
		if !pinnedVar[v] {
			pis = append(pis, v)
		}
	}

	spec := &circuit.Circuit{Nodes: nodes, Inputs: inputs, Outputs: outputs}
	next := &extract.Result{
		Circuit:        spec,
		PrimaryInputs:  pis,
		Intermediates:  ext.Intermediates,
		PrimaryOutputs: ext.PrimaryOutputs,
		Bindings:       ext.Bindings,
		NodeOf:         ext.NodeOf,
		OutputSources:  srcs,
		TransformTime:  ext.TransformTime,
		Windows:        ext.Windows,
		Fallbacks:      ext.Fallbacks,
		SignatureHits:  ext.SignatureHits,
	}
	verify, err := specializedVerifier(p.formula, next, merged)
	if err != nil {
		return nil, err
	}
	q := &Problem{
		formula: p.formula,
		ext:     next,
		eng:     compileEngine(spec),
		verify:  verify,
		key:     cnf.AssumeKey(p.formula.ContentHash(), merged),
		assume:  merged,
	}
	q.tile = tileFor(q.eng)
	return q, nil
}

// specializedVerifier rebuilds the bit-parallel verify plan from the CNF
// with the assumption pins resolved: satisfied clauses drop out of the
// sweep, falsified literals drop out of their clauses, and one unit clause
// per pin on a live (non-constant) node keeps the pin enforced against
// every candidate row. It mirrors bitblast.New's constant and nodeless
// resolution, with the pins taking precedence over both.
func specializedVerifier(f *cnf.Formula, ext *extract.Result, assume []cnf.Lit) (*bitblast.Program, error) {
	// Resolve every variable once: the node its literals sweep, or -1 with
	// the value it is fixed at. Nodeless variables default to false (the
	// bitblast.New convention shared with AssignmentFromInputs); pins are
	// applied last so they take precedence over constants.
	nodes := ext.Circuit.Nodes
	node := make([]int32, f.NumVars+1)
	val := make([]bool, f.NumVars+1)
	for v := range node {
		node[v] = -1
	}
	for v, id := range ext.NodeOf {
		if nodes[id].Type == circuit.Const {
			val[v] = nodes[id].Val
		} else {
			node[v] = int32(id)
		}
	}
	for _, l := range assume {
		node[l.Var()], val[l.Var()] = -1, l.Positive()
	}
	clauses := make([][]bitblast.PlanLit, 0, len(f.Clauses)+len(assume))
	var lits slab[bitblast.PlanLit]
	var out []bitblast.PlanLit
	unsat := false
	for _, c := range f.Clauses {
		sat := false
		out = out[:0]
		for _, l := range c {
			v := l.Var()
			if id := node[v]; id >= 0 {
				out = append(out, bitblast.PlanLit{Node: id, Neg: !l.Positive()})
			} else if l.Sat(val[v]) {
				sat = true
				break
			}
		}
		if sat {
			continue
		}
		if len(out) == 0 {
			unsat = true
			break
		}
		clauses = append(clauses, append(lits.take(len(out))[:0], out...))
	}
	if !unsat {
		for _, l := range assume {
			id, ok := ext.NodeOf[l.Var()]
			if !ok {
				continue
			}
			if nodes[id].Type == circuit.Const {
				if nodes[id].Val != l.Positive() {
					unsat = true
					break
				}
				continue
			}
			clauses = append(clauses, []bitblast.PlanLit{{Node: int32(id), Neg: !l.Positive()}})
		}
	}
	if unsat {
		clauses = nil
	}
	return bitblast.FromPlan(ext.Circuit, clauses, unsat)
}
