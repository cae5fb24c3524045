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
// variable the recovered function does not depend on a free input, and
// the 13 whose extraction has a bare-literal definition (v = x) when such
// a definition stopped renaming x's node to v.
var goldenDigests = map[string]string{
	"or-50-10-7-UC-10": "e678e7f8c09206cbb5d6b59a755559ebb02bf9118d718c5f83a61a6bb6289d2a",
	"90-10-10-q":       "61b636668df651ca1b12e3d1588a744f01c339bc0b9d5c8ac239b4c67b0d2956",
	"s15850a-mini":     "c2fca2c7dd10eb8789264748a4ee795e549452415adabe8f73d8586c14ab16e9",
	"Prod-mini":        "ae23a0e9f9fa4e11d2f3d5a477825f97bad404bd8848a8e4cd29b8f4f4db6ac7",
	"or-12-3-small":    "ae6d9d1460d0c85cdb8b82a7e9acf69d2a15dcfa45085988654c196aa407e2ce",
	"20-3-q-small":     "cdf832a9d9ca6fe282e39563b9629cdce03ac6c17858ad593273518c97797781",
	"iscas-small":      "57eb0b863c879c2cb866ddb41eec511ff52e1de84a80e6e860a66ef24c4d1ac0",
	"prod-small":       "272067c15a9538101395572f94ecea10a91f1d297b18a30d35e3057966604a00",
	"or-6-2-tiny":      "08667c504e27ad6caa98cb09685e30c79ee6ab195a7bd2148bacb83a2ef5f3a5",
	"8-2-q-tiny":       "9c8b82f46ebce96b0da5d83f7581bce47a324d264bde76c4d3fe736d17037570",
	"prod-5-2-tiny":    "8a5f9e409c38f809749fbb4e51fad2443700fdfb4aff3cc9d2812bb9679fe67c",
	"iscas-8-30-tiny":  "ce20e5586e7338bb4b3a358d3e91729bfd4c80a54ee39a3c5e887ed713220cfa",
	"cold-0":           "4ea6a1a3fd15a90b0065fa796cf14dcf02309fb14d1b633d2ae1c33eef1077ce",
	"cold-1":           "47618205898577b1043ec19e10fdef0041810e8ed7718c65fabd718bf0612a63",
	"cold-2":           "8c1b5d25a156b89109e18f2a18a9f16be2be8d1dddcf5e067034b2a2697d460b",
	"or-400-80-4001":   "f7434ca431ebfdf0f1f910574921e6a66adec15d94597c59558ae15b805f6aa2",
	"or-400-80-4002":   "341678eefcd05656282d08857fb7e344ef06d2d960f45366b30fdf25387d47c3",
	"or-400-80-4003":   "017df8fb713385312a19994d9b11b52ffc485afda92d37464cd6ab84cb0bc995",
	"or-400-80-4004":   "7d80479e6cff9b0d474239401101d595b375db988fbca76cc18614e4e4b3fb59",
	"s15850a_15_7":     "fb8f85fe10361cf0bdf058e202d886cdcf67bf45d4b51e0c894946604eeff1cf",
	"Prod-8":           "d1c34e9914ca5bc7c034fe9302cb385839d8d15a0ad9eefface17d0639872e96",
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
