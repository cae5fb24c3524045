package extract_test

import (
	"math/rand"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/extract"
)

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
		if id := ext.NodeOf[v-1]; plan[i] != int32(id) {
			t.Errorf("var %d: plan %d, node %d", v, plan[i], id)
		}
	}
}
