package server

import (
	"encoding/json"
	"fmt"
	"net/url"
	"slices"
	"strings"

	"repro/internal/cnf"
	"repro/internal/sampling"
)

// ProblemSpec is how a /v1/sample query names its problem: an artifact the
// fleet already compiled (?key=) or the posted DIMACS body, narrowed by
// ?project= and re-specialized by ?assume=. The replica's resolve stage and
// the satsharded router both derive the problem key from it, so a request
// lands on the replica that caches its artifact by construction.
type ProblemSpec struct {
	Key        string    // ?key=; empty when the body carries the formula
	Projection []int     // ?project=; nil when absent
	Assume     []cnf.Lit // ?assume=, canonical; nil when absent
}

// ParseProblemSpec reads ?key=, ?project= and ?assume= from a query. The
// projection and the pins each come as a JSON array ("[1,-4]") or the
// comma-separated list satsample's -project/-assume flags also speak.
// Syntax only: range, duplicate and contradiction checks need the
// formula's variable count (ProblemKey, cnf.ValidateAssumptions).
func ParseProblemSpec(q url.Values) (ProblemSpec, error) {
	proj, err := parseListSpec(q.Get("project"), "projection", cnf.ParseProjectionList)
	if err != nil {
		return ProblemSpec{}, err
	}
	assume, err := parseListSpec(q.Get("assume"), "assumption", cnf.ParseAssumeList)
	if err != nil {
		return ProblemSpec{}, err
	}
	if slices.Contains(assume, 0) {
		return ProblemSpec{}, fmt.Errorf("bad assumption literal 0")
	}
	return ProblemSpec{Key: q.Get("key"), Projection: proj, Assume: cnf.CanonicalAssume(assume)}, nil
}

// ProblemKey returns the content key the request's artifact is compiled,
// cached, stored and routed under. A keyed spec folds its pins into Key
// (cnf.AssumeKey) and ignores f: a compiled artifact is projection-
// independent, so a request projection rides on the session instead. A
// body request passes its parsed formula: the projection is validated
// against it and written into f.Projection before hashing (a formula's
// sampling set is part of its identity, and sessions inherit it), and the
// pins fold into the content hash.
func (ps ProblemSpec) ProblemKey(f *cnf.Formula) (string, error) {
	if ps.Key != "" {
		return cnf.AssumeKey(ps.Key, ps.Assume), nil
	}
	if ps.Projection != nil {
		if err := cnf.ValidateProjection(f.NumVars, ps.Projection); err != nil {
			return "", err
		}
		f.Projection = ps.Projection
	}
	return cnf.AssumeKey(sampling.HashFormula(f), ps.Assume), nil
}

// parseListSpec reads a JSON array of integers, or hands anything not
// starting with '[' to the comma-list parser.
func parseListSpec[T ~int](spec, what string, list func(string) ([]T, error)) ([]T, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	if !strings.HasPrefix(spec, "[") {
		return list(spec)
	}
	var raw []int
	if err := json.Unmarshal([]byte(spec), &raw); err != nil {
		return nil, fmt.Errorf("bad %s JSON: %v", what, err)
	}
	out := make([]T, len(raw))
	for i, v := range raw {
		out[i] = T(v)
	}
	return out, nil
}
