// Quickstart: sample satisfying assignments from a small CNF with the
// gradient-descent sampler.
//
// The CNF below is the paper's Fig. 1 example: two mux-terminated logic
// chains, with the second chain's output constrained to 1. The sampler
// first recovers the multi-level circuit from the clauses, then learns a
// batch of diverse solutions by gradient descent.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/extract"
)

const fig1CNF = `c paper Fig. 1 example
p cnf 14 21
-1 -2 0
1 2 0
-2 3 0
2 -3 0
-3 4 0
3 -4 0
-4 -11 5 0
-4 11 -5 0
4 -12 5 0
4 12 -5 0
-6 7 0
6 -7 0
-7 8 0
7 -8 0
-8 -9 0
8 9 0
-9 -13 10 0
-9 13 -10 0
9 -14 10 0
9 14 -10 0
10 0
`

func main() {
	// 1. Parse the DIMACS CNF.
	formula, err := cnf.ParseDIMACSString(fig1CNF)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CNF: %v\n", formula.Stats())

	// 2. Transform: CNF → multi-level, multi-output Boolean function.
	ext, err := extract.Transform(formula)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transformed in %v: %d primary inputs, %d intermediates, %d outputs\n",
		ext.TransformTime.Round(time.Microsecond),
		len(ext.PrimaryInputs), len(ext.Intermediates), len(ext.Circuit.Outputs))
	fmt.Printf("bit-ops: %d (CNF) -> %d (circuit)\n",
		formula.OpCount2(), ext.Circuit.OpCount2())

	// 3. Sample with gradient descent (paper settings: lr=10, 5 iterations).
	sampler, err := core.New(formula, ext, core.Config{BatchSize: 256, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	stats := sampler.SampleUntil(20, 5*time.Second)

	// 4. Print solutions as assignments of the primary input variables,
	// checking every one against the CNF independently of the sampler.
	fmt.Printf("\n%d unique solutions (%.0f sol/s):\n", stats.Unique, stats.Throughput())
	bad := 0
	for i, sol := range sampler.Solutions() {
		ok := formula.Sat(sampler.FullAssignment(sol))
		if !ok {
			bad++
		}
		if i >= 8 {
			continue
		}
		fmt.Printf("  ")
		for j, v := range ext.PrimaryInputs {
			fmt.Printf("x%d=%d ", v, b2i(sol[j]))
		}
		fmt.Printf(" [verified: %v]\n", ok)
	}
	if stats.Unique > 8 {
		fmt.Printf("  ... and %d more\n", stats.Unique-8)
	}
	if bad > 0 {
		log.Fatalf("%d of %d solutions fail the CNF", bad, stats.Unique)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
