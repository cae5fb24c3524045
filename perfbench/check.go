package main

import (
	"repro/internal/cnf"
	"repro/internal/sat"
)

// badSolutions verifies one stream's delivered solutions against the
// formula it sampled: each must be a full-width model of f
// (cnf.Formula.Sat), satisfy the pinned literals, and differ from every
// earlier solution of the stream in its identity — the assignment
// restricted to proj when proj is set, the whole assignment otherwise. It
// returns how many solutions break one of these rules.
func badSolutions(f *cnf.Formula, proj []int, pins []cnf.Lit, sols [][]bool) int {
	seen := make(map[string]bool, len(sols))
	bad := 0
	for _, s := range sols {
		if len(s) != f.NumVars || !f.Sat(s) || !pinsHold(s, pins) {
			bad++
			continue
		}
		id := identity(s, proj)
		if seen[id] {
			bad++
			continue
		}
		seen[id] = true
	}
	return bad
}

func pinsHold(s []bool, pins []cnf.Lit) bool {
	for _, l := range pins {
		if s[l.Var()-1] != l.Positive() {
			return false
		}
	}
	return true
}

func identity(s []bool, proj []int) string {
	if len(proj) == 0 {
		return bitString(s)
	}
	b := make([]byte, len(proj))
	for i, v := range proj {
		b[i] = '0'
		if s[v-1] {
			b[i] = '1'
		}
	}
	return string(b)
}

func bitString(s []bool) string {
	b := make([]byte, len(s))
	for i, v := range s {
		b[i] = '0'
		if v {
			b[i] = '1'
		}
	}
	return string(b)
}

// parseBits decodes the server's 0/1 assignment string; ok is false on
// any other byte.
func parseBits(s string) ([]bool, bool) {
	out := make([]bool, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '1':
			out[i] = true
		case '0':
		default:
			return nil, false
		}
	}
	return out, true
}

// modelPins pins k primary inputs of a model of f, chosen by pick, to the
// model's values: a pin set the formula is satisfiable under by
// construction.
func modelPins(model []bool, inputs []int, k int, pick func(n int) int) []cnf.Lit {
	k = min(k, len(inputs)-1)
	chosen := map[int]bool{}
	var pins []cnf.Lit
	for len(pins) < k {
		v := inputs[pick(len(inputs))]
		if chosen[v] {
			continue
		}
		chosen[v] = true
		if model[v-1] {
			pins = append(pins, cnf.Lit(v))
		} else {
			pins = append(pins, cnf.Lit(-v))
		}
	}
	return cnf.CanonicalAssume(pins)
}

// modelOf solves f and returns one of its models (nil when none is found).
func modelOf(f *cnf.Formula) []bool {
	s := sat.NewSolver(f, sat.Options{})
	if s.Solve() != sat.Sat {
		return nil
	}
	return s.Model()
}
