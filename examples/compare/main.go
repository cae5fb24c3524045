// Compare: run all four samplers (this work's GD sampler plus the three
// baselines) head-to-head on one benchmark instance and print a Table
// II-style row — a minimal version of cmd/paperbench for a single instance,
// and a tour of the embeddable sampling service layer: compile once through
// the cache, open a session, and drive every sampler through the unified
// streaming interface.
//
// Run: go run ./examples/compare
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/baselines"
	"repro/internal/benchgen"
	"repro/internal/sampling"
	"repro/internal/tensor"
)

func main() {
	in := benchgen.OrChain("or-50-10-7-UC-10", 50, 4, 5010)
	fmt.Println(in)
	fmt.Println()

	const (
		target  = 500
		timeout = 5 * time.Second
	)
	dev := tensor.Parallel()

	// Compile the instance once; the session shares the cached artifact
	// with any other session a concurrent caller might open.
	compiler := sampling.NewCompiler(0)
	problem, err := compiler.Compile(in.Formula)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
	ours, err := problem.NewSession(sampling.SessionConfig{Seed: 1, Device: dev, MemoryBudget: 256 << 20})
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}

	samplers := []sampling.Sampler{
		ours,
		baselines.NewUniGenLike(in.Formula, 1).WithSamplingSet(in.Enc.InputVar),
		baselines.NewCMSGenLike(in.Formula, 1),
		baselines.NewDiffSampler(in.Formula, 1, dev),
	}

	ctx := context.Background()
	fmt.Printf("%-14s %10s %12s %12s %8s\n", "sampler", "unique", "elapsed", "sol/s", "valid")
	for _, s := range samplers {
		// Stream with a verifying sink: every solution is checked against
		// the CNF the moment it is delivered, before the run even ends.
		valid := true
		tctx, cancel := context.WithTimeout(ctx, timeout)
		st, err := s.Stream(tctx, target, func(sol []bool) error {
			if !in.Formula.Sat(sol) {
				valid = false
			}
			return nil
		})
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(1)
		}
		fmt.Printf("%-14s %10d %12v %12.1f %8v\n",
			s.Name(), st.Unique, st.Elapsed.Round(time.Millisecond), st.Throughput(), valid)
	}
}
