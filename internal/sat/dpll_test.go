package sat

import "repro/internal/cnf"

// DPLL decides satisfiability with the textbook Davis–Putnam–Logemann–
// Loveland procedure (unit propagation + chronological backtracking, no
// learning). It is exponentially slower than the CDCL solver on hard
// instances and is the oracle the CDCL solver is tested against.
// It returns the verdict and, when Sat, a model (assign[v-1] = value).
func DPLL(f *cnf.Formula) (Status, []bool) {
	assign := make([]int8, f.NumVars)
	for i := range assign {
		assign[i] = valUnassigned
	}
	if dpll(f, assign) {
		model := make([]bool, f.NumVars)
		for i, v := range assign {
			model[i] = v == valTrue
		}
		return Sat, model
	}
	return Unsat, nil
}

func dpll(f *cnf.Formula, assign []int8) bool {
	// Unit propagation to fixpoint.
	var trail []int // vars set by this invocation, for undo
	undo := func() {
		for _, v := range trail {
			assign[v] = valUnassigned
		}
	}
	for {
		unit := cnf.Lit(0)
		conflict := false
		allSat := true
		for _, c := range f.Clauses {
			sat := false
			unassigned := 0
			var candidate cnf.Lit
			for _, l := range c {
				switch val := assign[l.Var()-1]; {
				case val == valUnassigned:
					unassigned++
					candidate = l
				case l.Sat(val == valTrue):
					sat = true
				}
				if sat {
					break
				}
			}
			if sat {
				continue
			}
			allSat = false
			switch unassigned {
			case 0:
				conflict = true
			case 1:
				unit = candidate
			}
			if conflict {
				break
			}
		}
		if conflict {
			undo()
			return false
		}
		if allSat {
			return true
		}
		if unit == 0 {
			break
		}
		v := unit.Var() - 1
		if unit.Positive() {
			assign[v] = valTrue
		} else {
			assign[v] = valFalse
		}
		trail = append(trail, v)
	}
	// Branch on the first unassigned variable.
	branch := -1
	for v, val := range assign {
		if val == valUnassigned {
			branch = v
			break
		}
	}
	if branch < 0 {
		// No unassigned variable and not allSat: some clause must be false.
		ok := satisfiedUnder(f, assign)
		if !ok {
			undo()
		}
		return ok
	}
	for _, val := range []int8{valTrue, valFalse} {
		assign[branch] = val
		if dpll(f, assign) {
			return true
		}
	}
	assign[branch] = valUnassigned
	undo()
	return false
}

func satisfiedUnder(f *cnf.Formula, assign []int8) bool {
	for _, c := range f.Clauses {
		sat := false
		for _, l := range c {
			if assign[l.Var()-1] != valUnassigned && l.Sat(assign[l.Var()-1] == valTrue) {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// CountModels enumerates models of f with the CDCL solver and blocking
// clauses, stopping at limit (limit <= 0 enumerates exhaustively). It is
// exponential in the worst case and intended for test-sized formulas.
func CountModels(f *cnf.Formula, limit int) int {
	s := NewSolver(f, Options{})
	count := 0
	for {
		if s.Solve() != Sat {
			return count
		}
		count++
		if limit > 0 && count >= limit {
			return count
		}
		model := s.Model()
		block := make([]cnf.Lit, f.NumVars)
		for v := 1; v <= f.NumVars; v++ {
			if model[v-1] {
				block[v-1] = cnf.Lit(-v)
			} else {
				block[v-1] = cnf.Lit(v)
			}
		}
		if !s.AddClause(block...) {
			return count
		}
	}
}
