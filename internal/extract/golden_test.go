package extract

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/logic"
)

// digest hashes everything Transform decides about a formula: every node's
// type, fanin, constant value and variable, the circuit's inputs and
// outputs, NodeOf, the clause provenance, the classification lists, the
// binding keys and the window counters. Two results with equal digests are
// the same extraction.
func digest(r *Result) string {
	h := sha256.New()
	c := r.Circuit
	for _, nd := range c.Nodes {
		fmt.Fprintf(h, "%d %v %t %d;", nd.Type, nd.Fanin, nd.Val, nd.Var)
	}
	fmt.Fprintf(h, "in %v out %v;", c.Inputs, c.Outputs)
	vars := make([]int, 0, len(r.NodeOf))
	for v := range r.NodeOf {
		vars = append(vars, v)
	}
	slices.Sort(vars)
	for _, v := range vars {
		fmt.Fprintf(h, "%d>%d,", v, r.NodeOf[v])
	}
	fmt.Fprintf(h, "src %v pi %v iv %v po %v;", r.OutputSources, r.PrimaryInputs, r.Intermediates, r.PrimaryOutputs)
	for _, b := range r.Bindings {
		fmt.Fprintf(h, "%d=%s;", b.Var, logic.Key(b.Expr))
	}
	fmt.Fprintf(h, "w %d f %d s %d", r.Windows, r.Fallbacks, r.SignatureHits)
	return hex.EncodeToString(h.Sum(nil))
}

// goldenCorpus is the fixed formula set the extraction digests are pinned
// on: the root benchmarks' benchInstances, SmallSuite, QualitySuite, three
// serve-cold formulas and the four gd-hard chains of perfbench, and the
// Fig. 4 s15850a_15_7 and Prod-8 rows.
func goldenCorpus() []*benchgen.Instance {
	ins := []*benchgen.Instance{
		benchgen.OrChain("or-50-10-7-UC-10", 50, 4, 5010),
		benchgen.QChain("90-10-10-q", 15, 24, 9020),
		benchgen.Iscas("s15850a-mini", 300, 3000, 7, 15874),
		benchgen.Prod("Prod-mini", 150, 30, 8),
	}
	ins = append(ins, benchgen.SmallSuite()...)
	ins = append(ins, benchgen.QualitySuite()...)
	for t := 0; t < 3; t++ {
		ins = append(ins, benchgen.Iscas(fmt.Sprintf("cold-%d", t), 120, 1200, 4, int64(6001+t)))
	}
	for seed := int64(4001); seed <= 4004; seed++ {
		ins = append(ins, benchgen.OrChain(fmt.Sprintf("or-400-80-%d", seed), 400, 80, seed))
	}
	return append(ins,
		benchgen.Iscas("s15850a_15_7", 600, 10390, 15, 15857),
		benchgen.Prod("Prod-8", 293, 150, 8),
	)
}

// goldenDigests were recorded when extraction was made deterministic
// (AND/OR operands in clause order) and before any extraction speedup:
// every later optimisation must reproduce these circuits exactly. The
// iscas-family digests were re-recorded when extraction began giving each
// variable the recovered function does not depend on a free input.
var goldenDigests = map[string]string{
	"or-50-10-7-UC-10": "e678e7f8c09206cbb5d6b59a755559ebb02bf9118d718c5f83a61a6bb6289d2a",
	"90-10-10-q":       "7fd37c3cf5468424f6cf8fdeb6cb1498d9f7ba95bb6d68fd89540c258cdcb1bb",
	"s15850a-mini":     "cf9eb2b95d14e2ce5ecb46a8af1c83996a09b823b58aeca663debda40d0706d0",
	"Prod-mini":        "042c21457629f4d2d3142adceddfd6983820e3a50a9a42c6d6b4661aa0a23fcc",
	"or-12-3-small":    "ae6d9d1460d0c85cdb8b82a7e9acf69d2a15dcfa45085988654c196aa407e2ce",
	"20-3-q-small":     "3a3d0cb341899bd2ef729c404405cea8f8d5c3db6a635c1082c7a150150352c6",
	"iscas-small":      "ec49b89519f0433e4ea411e13f4dd7f80fb2f7157cdc30dace4363e3f0a65550",
	"prod-small":       "4bc96b05e58df49ccd02d3a2d50d56184feb7008e95156e73b50ac352c243d7a",
	"or-6-2-tiny":      "08667c504e27ad6caa98cb09685e30c79ee6ab195a7bd2148bacb83a2ef5f3a5",
	"8-2-q-tiny":       "9b9b5dea66a14fbaf4c6751110550fbb97936d5bf63ebde743c8710108f960eb",
	"prod-5-2-tiny":    "8a5f9e409c38f809749fbb4e51fad2443700fdfb4aff3cc9d2812bb9679fe67c",
	"iscas-8-30-tiny":  "c2a9d1a7ca39b1e3d3a1c8d50def0584c8a240421f85eb4a932950ff5367e377",
	"cold-0":           "152934ea5ce2962ec756c75a774dc77abdd0dd8b91f8f1bb56e05c26a424865a",
	"cold-1":           "177ed851676397eb6ad1f28872f6aee2f7bd160c795e530ecb3b2a8a581dde7e",
	"cold-2":           "ca76364cdf5467a503e31ff09f689d26163b78ef66331eb6d1cc3f8c4db1aed2",
	"or-400-80-4001":   "f7434ca431ebfdf0f1f910574921e6a66adec15d94597c59558ae15b805f6aa2",
	"or-400-80-4002":   "341678eefcd05656282d08857fb7e344ef06d2d960f45366b30fdf25387d47c3",
	"or-400-80-4003":   "017df8fb713385312a19994d9b11b52ffc485afda92d37464cd6ab84cb0bc995",
	"or-400-80-4004":   "7d80479e6cff9b0d474239401101d595b375db988fbca76cc18614e4e4b3fb59",
	"s15850a_15_7":     "c3ac36376097063999efc18ff33b9367cd8e5ae1c7f91e8e35ab8915539b8009",
	"Prod-8":           "3cfd2b99fd9fe79500e01714462b4cb985b19fbef5ab77167c405eadafb27cd0",
}

func TestTransformGoldenDigests(t *testing.T) {
	for _, in := range goldenCorpus() {
		res, err := Transform(in.Formula)
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		got := digest(res)
		if want, ok := goldenDigests[in.Name]; !ok || got != want {
			t.Errorf("%q: %q, // want %q", in.Name, got, want)
		}
	}
}

// TestTransformDeterministic: the same formula extracts to the same
// circuit every time (map iteration order must not leak into fanin order).
func TestTransformDeterministic(t *testing.T) {
	for _, in := range append(benchgen.SmallSuite(), benchgen.Iscas("cold-0", 120, 1200, 4, 6001)) {
		var first string
		for i := 0; i < 4; i++ {
			res, err := Transform(in.Formula)
			if err != nil {
				t.Fatal(err)
			}
			if d := digest(res); i == 0 {
				first = d
			} else if d != first {
				t.Fatalf("%s: compile %d digest %s, first %s", in.Name, i, d, first)
			}
		}
	}
}
