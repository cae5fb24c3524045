// Path exploration: sample diverse inputs that reach a guarded program
// point — the symbolic-execution workload the paper's introduction
// motivates (KLEE/DART-style test generation).
//
// The "program" is a small routine over two 8-bit unsigned inputs:
//
//	func target(x, y uint8) {
//	    if x > y {            // branch 1
//	        z := x - y
//	        if z & 0x0F == 3 { // branch 2
//	            if y != 0 {    // branch 3
//	                BUG()      // <- reach this
//	            }
//	        }
//	    }
//	}
//
// The path condition (x > y) ∧ ((x−y)&15 == 3) ∧ (y ≠ 0) is encoded as a
// bit-level circuit (a ripple-borrow subtractor + comparator, exactly what
// a symbolic executor's bit-blaster emits), Tseitin-encoded, and sampled.
// Every returned sample is an input pair that drives execution to BUG().
//
// Run: go run ./examples/pathexplore
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
	c := circuit.NewCircuit()
	x := make([]circuit.NodeID, 8)
	y := make([]circuit.NodeID, 8)
	for i := range x {
		x[i] = c.AddInput(fmt.Sprintf("x%d", i))
	}
	for i := range y {
		y[i] = c.AddInput(fmt.Sprintf("y%d", i))
	}

	// Ripple-borrow subtractor: z = x - y, borrow chain b.
	// z_i = x_i ⊕ y_i ⊕ b_i;  b_{i+1} = (¬x_i ∧ y_i) ∨ (¬(x_i ⊕ y_i) ∧ b_i).
	z := make([]circuit.NodeID, 8)
	borrow := c.AddConst(false)
	for i := 0; i < 8; i++ {
		xy := c.AddGate(circuit.Xor, x[i], y[i])
		z[i] = c.AddGate(circuit.Xor, xy, borrow)
		nx := c.AddGate(circuit.Not, x[i])
		t1 := c.AddGate(circuit.And, nx, y[i])
		nxy := c.AddGate(circuit.Not, xy)
		t2 := c.AddGate(circuit.And, nxy, borrow)
		borrow = c.AddGate(circuit.Or, t1, t2)
	}
	// Branch 1: x > y  ⇔  final borrow of (y - x... ) — simpler: x > y iff
	// x != y and borrow(x-y) == 0.
	neq := c.AddGate(circuit.Xor, x[0], y[0])
	for i := 1; i < 8; i++ {
		neq = c.AddGate(circuit.Or, neq, c.AddGate(circuit.Xor, x[i], y[i]))
	}
	noBorrow := c.AddGate(circuit.Not, borrow)
	gt := c.AddGate(circuit.And, neq, noBorrow)
	c.MarkOutput(gt, true)

	// Branch 2: (z & 0x0F) == 3  ⇔ z0=1, z1=1, z2=0, z3=0.
	want := []bool{true, true, false, false}
	cond2 := circuit.NodeID(-1)
	for i, w := range want {
		bit := z[i]
		if !w {
			bit = c.AddGate(circuit.Not, z[i])
		}
		if cond2 < 0 {
			cond2 = bit
		} else {
			cond2 = c.AddGate(circuit.And, cond2, bit)
		}
	}
	c.MarkOutput(cond2, true)

	// Branch 3: y != 0.
	ynz := y[0]
	for i := 1; i < 8; i++ {
		ynz = c.AddGate(circuit.Or, ynz, y[i])
	}
	c.MarkOutput(ynz, true)

	enc := c.Tseitin()
	fmt.Printf("path condition CNF: %v\n", enc.Formula.Stats())

	ext, err := extract.Transform(enc.Formula)
	if err != nil {
		log.Fatal(err)
	}
	sampler, err := core.New(enc.Formula, ext, core.Config{BatchSize: 2048, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	stats := sampler.SampleUntil(500, 10*time.Second)
	fmt.Printf("sampled %d unique path inputs at %.0f inputs/s\n\n", stats.Unique, stats.Throughput())

	decode := func(sol []bool) (uint8, uint8) {
		full := sampler.FullAssignment(sol)
		if !enc.Formula.Sat(full) {
			log.Fatal("a sampled path input fails the path-condition CNF")
		}
		var xv, yv uint8
		for i := 0; i < 8; i++ {
			if full[enc.InputVar[i]-1] {
				xv |= 1 << i
			}
			if full[enc.InputVar[8+i]-1] {
				yv |= 1 << i
			}
		}
		return xv, yv
	}

	// Replay every sample through the concrete program to prove they all
	// reach BUG().
	reached := 0
	for _, sol := range sampler.Solutions() {
		xv, yv := decode(sol)
		if xv > yv && (xv-yv)&0x0F == 3 && yv != 0 {
			reached++
		}
	}
	fmt.Printf("concrete replay: %d/%d samples reach BUG()\n", reached, stats.Unique)
	fmt.Println("\nfirst test inputs:")
	for i, sol := range sampler.Solutions() {
		if i >= 6 {
			break
		}
		xv, yv := decode(sol)
		fmt.Printf("  x=%3d y=%3d  (x-y=%3d, low nibble %d)\n", xv, yv, xv-yv, (xv-yv)&0x0F)
	}
}
