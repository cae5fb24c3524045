package extract

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/logic"
)

// digest hashes everything Transform decides about a formula: every node's
// type, fanin, constant value and variable, the circuit's inputs and
// outputs, NodeOf, the classification lists, the
// binding keys and the window counters. Two results with equal digests are
// the same extraction.
func digest(r *Result) string {
	h := sha256.New()
	c := r.Circuit
	for _, nd := range c.Nodes {
		fmt.Fprintf(h, "%d %v %t %d;", nd.Type, nd.Fanin, nd.Val, nd.Var)
	}
	fmt.Fprintf(h, "in %v out %v;", c.Inputs, c.Outputs)
	for i, id := range r.NodeOf {
		fmt.Fprintf(h, "%d>%d,", i+1, id)
	}
	fmt.Fprintf(h, "pi %v iv %v po %v;", r.PrimaryInputs, r.Intermediates, r.PrimaryOutputs)
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
// a definition stopped renaming x's node to v. All were re-recorded when
// the clause-provenance table left the digest with Result.OutputSources;
// the provenance-free digest of the extraction before that change
// matched each new entry.
var goldenDigests = map[string]string{
	"or-50-10-7-UC-10": "88090174e6c52a14c257d2cb98991c8764ef848cd48937ea04e0229a795f446c",
	"90-10-10-q":       "e7cb0595a3ab775911520be502ad6df77c536427d89a122325427780ca71b1cd",
	"s15850a-mini":     "d12e2cf53f89828bdf19fdf802f3dd715a49a0b0261617d6ddc999c71b0a0d60",
	"Prod-mini":        "42c2805746278e9d3ffc41ba451528f8d3719e93762c1093e3a29cf298fed971",
	"or-12-3-small":    "f20722ac91d80b60aa20a8ebc13632e8d3b2c9677be0350fcce436558de16175",
	"20-3-q-small":     "f82781d6dadfc10a895add51b6da83d6eae3276168ac8bb2445d806d125b3335",
	"iscas-small":      "8568f562b3966081e0f140de69a4c667536973bddde00200f4fbbef83fa0d62c",
	"prod-small":       "83fc80962e4275f01a83c7bec9ae64caef257f061e4af491cef303d9f4d1b547",
	"or-6-2-tiny":      "7294c51ee7518d88605540810b45c62b04175a9c6f085069a06c6c5f9dda1357",
	"8-2-q-tiny":       "383d8fe61bc5f87979527238d8bff35f524a4b53ee008cb2edc895abdf128758",
	"prod-5-2-tiny":    "0104b95ffc31b6a2fb12f94021cfbaf361467d27b631c7521c278707c227ad2b",
	"iscas-8-30-tiny":  "ac62a9795799b9d935043782f4744b5cb8e851c6deef95a2b7b33e69470df6cc",
	"cold-0":           "c55d6638c7b7b61688c05f8f9e54e74e45b96e80983c9bc7ca090238af53735c",
	"cold-1":           "225017d5b9790a5b5c7e645ec849cddfcd9752a5b7e36b4998de905ac4dab518",
	"cold-2":           "2d0ffb9d95935556e54d909a104543eb70938baef1ab8e54c22706484b37af3e",
	"or-400-80-4001":   "714967a1d5982ddfab2afa265d6ad74be9a0912caa08f47e1931bba9c63feaeb",
	"or-400-80-4002":   "d524ebb6bd8187920954077b5f058fdaf64b82b54b43bc18b0a44b79b6f5105d",
	"or-400-80-4003":   "7591791449cc808a47c4679b1a1c48bfc0ed9473186d40ea73a24e6ec0080643",
	"or-400-80-4004":   "3cd5285f7dd9e3bff7b25a75f3effc1ecb4458e1843fec234a7f6bb4c92d67d5",
	"s15850a_15_7":     "c3fa362f28c8779ab4c9653607c640081c71611d05b4c8f9e73c0455564e1b13",
	"Prod-8":           "6e0cd9f9700e7e66efa691ed5a7de7f1489e0cab90ae95d946a1f2f7e83b4fdf",
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
