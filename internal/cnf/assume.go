package cnf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Assumption lists pin literals for one sampling request: every returned
// solution must satisfy each pinned literal. The grammar, canonical form,
// and key derivation live here because three independent processes must
// agree on them byte-for-byte — the serving replica (?assume=), the
// satsharded edge (routing key), and the compile-tier store (artifact
// identity).

// ParseAssumeList reads a comma-separated assumption literal list — the
// spelling shared by satsample's -assume flag and satserved's ?assume=
// parameter. Literals are DIMACS-signed integers (+v pins variable v true,
// -v pins it false). An empty (or all-whitespace) spec is no assumption
// (nil, nil); a spec with tokens but no literals is an error, so a typo
// like "," cannot silently mean "no pins". Range, duplicate and
// contradiction checks are ValidateAssumptions' job once the variable
// count is known.
func ParseAssumeList(spec string) ([]Lit, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []Lit
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("cnf: bad assumption literal %q", tok)
		}
		if v == 0 {
			return nil, fmt.Errorf("cnf: assumption literal 0 is invalid")
		}
		out = append(out, Lit(v))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cnf: assumption list %q names no literals", spec)
	}
	return out, nil
}

// CanonicalAssume returns the canonical form of an assumption list: sorted
// by variable (negative literal first for the same variable) with exact
// duplicates removed. It is total — contradictory pairs (v and ¬v) are
// kept, so key derivation stays deterministic on any input; rejecting them
// is ValidateAssumptions' job. The input slice is not modified; an empty
// input canonicalizes to nil.
func CanonicalAssume(assume []Lit) []Lit {
	if len(assume) == 0 {
		return nil
	}
	out := append([]Lit(nil), assume...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Var() != out[j].Var() {
			return out[i].Var() < out[j].Var()
		}
		return out[i] < out[j]
	})
	w := 0
	for i := 0; i < len(out); i++ {
		if w > 0 && out[w-1] == out[i] {
			continue
		}
		out[w] = out[i]
		w++
	}
	return out[:w]
}

// ValidateAssumptions checks an assumption list against the formula: every
// literal must be non-zero, its variable in 1..NumVars, and no variable
// may be pinned to both polarities. Exact duplicates are fine (they
// canonicalize away).
func ValidateAssumptions(numVars int, assume []Lit) error {
	seen := make(map[int]bool, len(assume))
	for _, l := range assume {
		if l == 0 {
			return fmt.Errorf("cnf: assumption literal 0 is invalid")
		}
		v := l.Var()
		if v > numVars {
			return fmt.Errorf("cnf: assumption literal %d out of range 1..%d", int(l), numVars)
		}
		if pol, ok := seen[v]; ok && pol != l.Positive() {
			return fmt.Errorf("cnf: contradictory assumptions %d and %d", -int(l), int(l))
		}
		seen[v] = l.Positive()
	}
	return nil
}

// ValidateCanonicalAssume checks an assumption list that must already be
// in canonical form — as decoders of stored artifacts require, since the
// content key hashes exactly what the writer canonicalized: valid under
// ValidateAssumptions and strictly ascending by variable.
func ValidateCanonicalAssume(numVars int, assume []Lit) error {
	if err := ValidateAssumptions(numVars, assume); err != nil {
		return err
	}
	for i := 1; i < len(assume); i++ {
		if assume[i].Var() <= assume[i-1].Var() {
			return fmt.Errorf("cnf: assumption list not canonical at entry %d", i)
		}
	}
	return nil
}

// AssumeKey derives the cache identity of a problem specialized under
// assumptions: sha256 over the base content hash and the canonical literal
// sequence, hex-encoded like ContentHash. An empty assumption set returns
// baseKey unchanged, so unspecialized artifacts keep their identity. The
// edge router, the replica, and the store all call this with whatever
// order/duplication the client sent and land on the same key — the
// canonicalization inside is the contract.
func AssumeKey(baseKey string, assume []Lit) string {
	canon := CanonicalAssume(assume)
	if len(canon) == 0 {
		return baseKey
	}
	h := sha256.New()
	h.Write([]byte(baseKey))
	var buf [binary.MaxVarintLen64]byte
	writeInt := func(v int64) {
		n := binary.PutVarint(buf[:], v)
		h.Write(buf[:n])
	}
	writeInt(int64(len(canon)))
	for _, l := range canon {
		writeInt(int64(l))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Condition returns f conditioned on the assumptions: clauses satisfied by
// a pinned literal are dropped, falsified literals are removed from the
// remaining clauses, and one unit clause per assumption is appended so the
// pinned variables stay constrained (and counted) in the result. NumVars
// and the projection are unchanged. A clause that loses all its literals
// stays as an empty clause — the standard unsatisfiable marker. This is
// the ground-truth semantics of ?assume=: the specialized sampler must
// sample exactly the models of f.Condition(assume).
func (f *Formula) Condition(assume []Lit) (*Formula, error) {
	canon := CanonicalAssume(assume)
	if err := ValidateAssumptions(f.NumVars, canon); err != nil {
		return nil, err
	}
	val := make(map[int]bool, len(canon))
	for _, l := range canon {
		val[l.Var()] = l.Positive()
	}
	g := &Formula{NumVars: f.NumVars}
	if f.Projection != nil {
		g.Projection = append([]int(nil), f.Projection...)
	}
	for _, c := range f.Clauses {
		sat := false
		keep := make(Clause, 0, len(c))
		for _, l := range c {
			if v, ok := val[l.Var()]; ok {
				if l.Sat(v) {
					sat = true
					break
				}
				continue
			}
			keep = append(keep, l)
		}
		if !sat {
			g.Clauses = append(g.Clauses, keep)
		}
	}
	for _, l := range canon {
		g.Clauses = append(g.Clauses, Clause{l})
	}
	return g, nil
}
