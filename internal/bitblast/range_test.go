package bitblast_test

import "testing"

// TestVerifyMaskedRangeMatchesFull: sweeping a word range per worker (the
// parallel scheduler's per-tile form) must agree with the full sweep on
// masked words and leave everything else — including masked words
// outside the range — untouched.
func TestVerifyMaskedRangeMatchesFull(t *testing.T) {
	checkSweep(t, 41, 20,
		sweepCase{name: "split", mask: "random", ranges: "split"},
		sweepCase{name: "tail", mask: "random", ranges: "tail"},
		sweepCase{name: "split-unmasked", ranges: "split"},
		sweepCase{name: "tail-unsat", mask: "random", ranges: "tail", unsat: true})
}

// TestVerifyMaskedProjectRangeMatchesFull: the projected per-tile sweep
// must match the full projected sweep on masked in-range words and
// preserve cached validity and projections elsewhere.
func TestVerifyMaskedProjectRangeMatchesFull(t *testing.T) {
	checkSweep(t, 43, 20,
		sweepCase{name: "split-project", mask: "random", ranges: "split", project: true},
		sweepCase{name: "tail-project", mask: "random", ranges: "tail", project: true},
		sweepCase{name: "tail-project-unsat", mask: "random", ranges: "tail", project: true, unsat: true})
}

// TestVerifyMaskedRangeZeroAllocs: the per-tile sweeps must not allocate
// (they run inside the scheduler's steady-state tick).
func TestVerifyMaskedRangeZeroAllocs(t *testing.T) {
	checkSweepAllocs(t, 47,
		sweepCase{name: "range", mask: "random", ranges: "tail"},
		sweepCase{name: "range-project", mask: "random", ranges: "tail", project: true})
}
