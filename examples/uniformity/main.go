// Uniformity audit: measure how evenly each sampler covers the solution
// space of a small instance whose exact model count is known (via the BDD
// engine), in the spirit of the sampler-testing work the paper cites
// (Pote et al., NeurIPS'22).
//
// The instance is a 12-input odd-parity-or-majority cone: solutions are
// plentiful (the space is known exactly from a BDD SatCount), so empirical
// frequencies over repeated sampling expose each sampler's bias.
//
// Run: go run ./examples/uniformity
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/baselines"
	"repro/internal/bdd"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/logic"
	"repro/internal/quality"
	"repro/internal/sampling"
	"repro/internal/tensor"
)

const nInputs = 12

func main() {
	// Build the constraint circuit: parity(x1..x6) OR majority(x7,x8,x9),
	// AND NOT(x10 AND x11 AND x12). One output constrained to 1.
	c := circuit.NewCircuit()
	in := make([]circuit.NodeID, nInputs)
	for i := range in {
		in[i] = c.AddInput(fmt.Sprintf("x%d", i+1))
	}
	par := in[0]
	for i := 1; i < 6; i++ {
		par = c.AddGate(circuit.Xor, par, in[i])
	}
	maj := c.AddGate(circuit.Or,
		c.AddGate(circuit.And, in[6], in[7]),
		c.AddGate(circuit.And, in[6], in[8]),
		c.AddGate(circuit.And, in[7], in[8]))
	guard := c.AddGate(circuit.Nand, in[9], in[10], in[11])
	root := c.AddGate(circuit.And, c.AddGate(circuit.Or, par, maj), guard)
	c.MarkOutput(root, true)
	enc := c.Tseitin()

	// Ground truth: count solutions over the 12 inputs with a BDD.
	expr := logic.And(
		logic.Or(
			logic.Xor(logic.V(1), logic.V(2), logic.V(3), logic.V(4), logic.V(5), logic.V(6)),
			logic.Or(
				logic.And(logic.V(7), logic.V(8)),
				logic.And(logic.V(7), logic.V(9)),
				logic.And(logic.V(8), logic.V(9)))),
		logic.Not(logic.And(logic.V(10), logic.V(11), logic.V(12))))
	m := bdd.New()
	for v := 1; v <= nInputs; v++ {
		m.AddVar(v)
	}
	space := m.SatCount(m.FromExpr(expr))
	fmt.Printf("instance: %d inputs, exactly %.0f solutions (BDD-counted)\n\n", nInputs, space)

	const samples = 15000
	timeout := 20 * time.Second

	audit := func(name string, draw func() [][]bool) {
		counts := map[string]int{}
		for _, sol := range draw() {
			key := make([]byte, len(sol))
			for i, b := range sol {
				if b {
					key[i] = 1
				}
			}
			counts[string(key)]++
		}
		hits := make([]int, 0, len(counts))
		for _, c := range counts {
			hits = append(hits, c)
		}
		q := quality.Evaluate(hits, space)
		fmt.Printf("%-14s distinct=%-5d coverage=%5.1f%%  chi2/dof=%6.2f  p=%.3g\n",
			name, q.Distinct, 100*q.Coverage, q.ChiSquare/float64(q.DoF), q.P)
	}

	// This work: unique solutions only (the sampler dedupes), so the audit
	// measures coverage of the space rather than frequency balance.
	ext, err := extract.Transform(enc.Formula)
	if err != nil {
		log.Fatal(err)
	}
	gd, err := core.New(enc.Formula, ext, core.Config{BatchSize: 4096, Seed: 11, Device: tensor.Parallel()})
	if err != nil {
		log.Fatal(err)
	}
	gd.SampleUntil(int(space), timeout)
	audit("this-work", func() [][]bool {
		var out [][]bool
		for _, sol := range gd.Solutions() {
			full := gd.FullAssignment(sol)
			if !enc.Formula.Sat(full) {
				log.Fatal("a sampled solution fails the CNF")
			}
			out = append(out, cnf.Project(full, enc.InputVar[:nInputs]))
		}
		return out
	})

	// Baselines: repeated draws, projected to the inputs.
	project := func(s sampling.Sampler) [][]bool {
		sampling.SampleUntil(s, samples, timeout)
		var out [][]bool
		for _, m := range s.Solutions() {
			out = append(out, cnf.Project(m, enc.InputVar[:nInputs]))
		}
		return out
	}
	audit("unigen3-like", func() [][]bool {
		return project(baselines.NewUniGenLike(enc.Formula, 3).WithSamplingSet(enc.InputVar))
	})
	audit("cmsgen-like", func() [][]bool {
		return project(baselines.NewCMSGenLike(enc.Formula, 3))
	})

	fmt.Println("\n(all samplers deduplicate, so chi2 reflects coverage balance over the")
	fmt.Println(" observed support; a uniform sampler approaches 100% coverage with large p)")
}
