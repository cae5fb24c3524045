package extract_test

import (
	"math/rand"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/extract"
)

// TestOutputSourcesAligned: the clause-provenance table must carry exactly
// one entry per circuit output, each listing valid, duplicate-free original
// clause indices — the invariant clause-weighted GD aggregates over.
func TestOutputSourcesAligned(t *testing.T) {
	for _, in := range benchgen.SmallSuite() {
		ext, err := extract.Transform(in.Formula)
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if got, want := len(ext.OutputSources), len(ext.Circuit.Outputs); got != want {
			t.Fatalf("%s: %d provenance entries for %d outputs", in.Name, got, want)
		}
		seen := map[int]bool{}
		for oi, srcs := range ext.OutputSources {
			for _, ci := range srcs {
				if ci < 0 || ci >= in.Formula.NumClauses() {
					t.Fatalf("%s output %d: clause index %d out of range", in.Name, oi, ci)
				}
				// A clause constrains at most one output: commit consumes
				// its clauses and fallback windows are disjoint.
				if seen[ci] {
					t.Fatalf("%s output %d: clause %d attributed twice", in.Name, oi, ci)
				}
				seen[ci] = true
			}
		}
	}
}

// TestProjectionNodes: every variable 1..NumVars has a node, and the plan
// maps each projection variable to it.
func TestProjectionNodes(t *testing.T) {
	in := benchgen.SmallSuite()[0]
	ext, err := extract.Transform(in.Formula)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.NodeOf) != in.Formula.NumVars {
		t.Fatalf("node map covers %d of %d variables", len(ext.NodeOf), in.Formula.NumVars)
	}
	r := rand.New(rand.NewSource(5))
	vars := []int{1, in.Formula.NumVars, 1 + r.Intn(in.Formula.NumVars)}
	plan := ext.ProjectionNodes(vars)
	for i, v := range vars {
		if id := ext.NodeOf[v]; plan[i] != int32(id) {
			t.Errorf("var %d: plan %d, node %d", v, plan[i], id)
		}
	}
}
