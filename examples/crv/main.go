// Constrained-random verification (CRV): generate diverse stimulus vectors
// for a DUT under an input constraint — the hardware-verification workload
// the paper's introduction motivates.
//
// The DUT here is an 8-bit ALU-slice checker: a comparator network that
// raises `alarm` when the two operand bytes match on every nibble boundary
// pattern the testbench cares about. The verification constraint is
// "alarm must be 0" (we want legal, non-degenerate stimuli), plus a parity
// cover condition so stimuli exercise the odd-parity path.
//
// The flow mirrors real CRV: constraints are written as a circuit,
// Tseitin-encoded to CNF (what an industrial flow hands the sampler), and
// the GD sampler draws a batch of unique stimulus vectors.
//
// Run: go run ./examples/crv
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/extract"
)

func main() {
	// ---- Build the DUT constraint circuit -------------------------------
	c := circuit.NewCircuit()
	a := make([]circuit.NodeID, 8) // operand A bits
	b := make([]circuit.NodeID, 8) // operand B bits
	for i := range a {
		a[i] = c.AddInput(fmt.Sprintf("a%d", i))
	}
	for i := range b {
		b[i] = c.AddInput(fmt.Sprintf("b%d", i))
	}

	// Nibble equality: eqLo = AND(a_i XNOR b_i, i<4), eqHi likewise.
	xnor := func(x, y circuit.NodeID) circuit.NodeID { return c.AddGate(circuit.Xnor, x, y) }
	eqLo := xnor(a[0], b[0])
	for i := 1; i < 4; i++ {
		eqLo = c.AddGate(circuit.And, eqLo, xnor(a[i], b[i]))
	}
	eqHi := xnor(a[4], b[4])
	for i := 5; i < 8; i++ {
		eqHi = c.AddGate(circuit.And, eqHi, xnor(a[i], b[i]))
	}
	// alarm = eqLo AND eqHi (full match) — must NOT fire.
	alarm := c.AddGate(circuit.And, eqLo, eqHi)
	c.MarkOutput(alarm, false)

	// Coverage condition: odd parity over operand A — must fire.
	parity := a[0]
	for i := 1; i < 8; i++ {
		parity = c.AddGate(circuit.Xor, parity, a[i])
	}
	c.MarkOutput(parity, true)

	// ---- Encode to CNF (what the testbench hands the sampler) -----------
	enc := c.Tseitin()
	fmt.Printf("constraint CNF: %v\n", enc.Formula.Stats())

	// ---- Transform back and sample --------------------------------------
	ext, err := extract.Transform(enc.Formula)
	if err != nil {
		log.Fatal(err)
	}
	sampler, err := core.New(enc.Formula, ext, core.Config{BatchSize: 1024, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	stats := sampler.SampleUntil(200, 10*time.Second)
	fmt.Printf("sampled %d unique stimuli at %.0f vectors/s\n\n", stats.Unique, stats.Throughput())

	// ---- Decode solutions back to (A, B) stimulus bytes ------------------
	// Map CNF variables to input positions via the encoder's InputVar.
	varToInput := map[int]int{}
	for i, v := range enc.InputVar {
		varToInput[v] = i
	}
	decode := func(sol []bool) (byte, byte) {
		full := sampler.FullAssignment(sol)
		if !enc.Formula.Sat(full) {
			log.Fatal("a sampled stimulus fails the constraint CNF")
		}
		var av, bv byte
		for i := 0; i < 8; i++ {
			if full[enc.InputVar[i]-1] {
				av |= 1 << i
			}
			if full[enc.InputVar[8+i]-1] {
				bv |= 1 << i
			}
		}
		return av, bv
	}

	fmt.Println("first stimuli (A, B, A-parity, nibble-match):")
	coverLo, coverHi := 0, 0
	for i, sol := range sampler.Solutions() {
		av, bv := decode(sol)
		if av&0x0F == bv&0x0F {
			coverLo++
		}
		if av&0xF0 == bv&0xF0 {
			coverHi++
		}
		if i < 6 {
			fmt.Printf("  A=%08b B=%08b parity=%d loMatch=%v\n",
				av, bv, popcount(av)%2, av&0x0F == bv&0x0F)
		}
	}
	fmt.Printf("\ncoverage across %d stimuli: lo-nibble match %d, hi-nibble match %d (full match: 0 by construction)\n",
		stats.Unique, coverLo, coverHi)
}

func popcount(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}
