package baselines

import (
	"context"
	"math/rand"

	"repro/internal/cnf"
	"repro/internal/sampling"
	"repro/internal/sat"
)

var _ sampling.Sampler = (*UniGenLike)(nil)

// UniGenLike is a hashing-based almost-uniform sampler in the UniGen3
// style: random XOR constraints over a sampling set split the solution
// space into cells of roughly pivot size; a cell is enumerated exhaustively
// with blocking clauses and a random subset of its models is emitted.
// The hash count adapts with an ApproxMC-style galloping search. The
// dominant cost — many CDCL calls per emitted sample, on XOR-augmented
// formulas — is the cost profile the paper compares against.
type UniGenLike struct {
	driver
	formula *cnf.Formula
	rng     *rand.Rand

	// Pivot is the target cell size (UniGen uses ~20-70). Default 32.
	Pivot int
	// SamplingSet is the independent support to hash and project on. The
	// real UniGen3 requires this annotation on benchmark instances (the
	// Tseitin input variables); without one it defaults to all variables,
	// which is dramatically slower — exactly as with the real tool.
	SamplingSet []int
	// MaxXorWidth bounds the number of variables per hash constraint.
	// UniGen3 uses dense (n/2-width) XORs and relies on CryptoMiniSat's
	// native Gauss-Jordan XOR propagation; our plain CDCL solver has no XOR
	// engine, so by default hashes are sparse (Ermon et al.'s low-density
	// parity constraints, width ≤ 12), which trades some cell-size variance
	// for tractable propagation. Set to 0 for dense hashes.
	MaxXorWidth int

	hashes      int  // current number of XOR constraints
	step        int  // adaptive hash increment (doubles while cells stay overfull)
	downStep    int  // adaptive decrement (doubles while cells stay empty)
	initialized bool // hashes seeded from the sampling-set size
}

// NewUniGenLike builds the sampler; seed drives hash selection.
func NewUniGenLike(f *cnf.Formula, seed int64) *UniGenLike {
	return &UniGenLike{
		driver:      driver{pool: newPool(f)},
		formula:     f,
		rng:         rand.New(rand.NewSource(seed)),
		Pivot:       32,
		MaxXorWidth: 12,
	}
}

// WithSamplingSet sets the independent support and returns u.
func (u *UniGenLike) WithSamplingSet(vars []int) *UniGenLike {
	u.SamplingSet = append([]int(nil), vars...)
	return u
}

func (u *UniGenLike) samplingVars() []int {
	if len(u.SamplingSet) > 0 {
		return u.SamplingSet
	}
	all := make([]int, u.formula.NumVars)
	for i := range all {
		all[i] = i + 1
	}
	return all
}

// Name implements sampling.Sampler.
func (u *UniGenLike) Name() string { return "unigen3-like" }

// Stream implements sampling.Sampler: one hashed cell per step.
func (u *UniGenLike) Stream(ctx context.Context, target int, sink sampling.Sink) (sampling.Stats, error) {
	if !u.initialized {
		// Seed the hash count the way UniGen3 seeds it from an ApproxMC
		// model-count estimate: the solution count is at most 2^|S| over the
		// sampling set, and gate-style instances sit within a few output
		// bits of that, so start a little below |S| − log2(pivot) and let
		// the galloping search correct in both directions.
		u.hashes = max(len(u.samplingVars())-12, 0)
		u.initialized = true
	}
	emptyStreak := 0
	staleStreak := 0
	hardStreak := 0
	return u.stream(ctx, target, sink, func() bool {
		models, full, hard := u.enumerateCell(ctx)
		if hard {
			// The cell's XOR system exhausted the conflict budget: resample
			// hashes at the same count a few times, then back off.
			hardStreak++
			if hardStreak > 8 && u.hashes > 0 {
				u.hashes--
				hardStreak = 0
			}
			return false
		}
		hardStreak = 0
		switch {
		case len(models) == 0:
			// Empty cell: too many hashes (or unsat instance). The
			// decrement doubles while cells stay empty (galloping down).
			if u.hashes == 0 {
				u.stats.Exhausted = true
				return true
			}
			if u.downStep < 1 {
				u.downStep = 1
			}
			u.hashes -= u.downStep
			if u.hashes < 0 {
				u.hashes = 0
			}
			if u.downStep < 16 {
				u.downStep *= 2
			}
			u.step = 1
			emptyStreak++
			if emptyStreak > 32 {
				u.stats.Exhausted = true
				return true
			}
			return false
		case full:
			// Overfull cell: add hashes to split further. The increment
			// doubles while cells stay overfull (an ApproxMC-style galloping
			// search for the right cell size), resetting once a usable cell
			// is found.
			if u.step < 1 {
				u.step = 1
			}
			u.hashes += u.step
			if u.step < 16 {
				u.step *= 2
			}
			u.downStep = 1
			emptyStreak = 0
			return false
		}
		emptyStreak = 0
		u.downStep = 1
		if u.hashes == 0 {
			// No hash constraints: the cell is the entire solution space,
			// so fold everything and stop — nothing more exists.
			for _, m := range models {
				u.pool.add(m)
			}
			u.stats.Exhausted = true
			return true
		}
		u.step = 1
		// Cell within pivot: emit a random half of the cell (UniGen emits a
		// bounded random subset per cell to keep samples near-uniform).
		u.rng.Shuffle(len(models), func(i, j int) { models[i], models[j] = models[j], models[i] })
		emit := (len(models) + 1) / 2
		gained := 0
		for _, m := range models[:emit] {
			if u.pool.add(m) {
				gained++
			}
		}
		if gained > 0 {
			staleStreak = 0
			return false
		}
		staleStreak++
		if staleStreak > 64 {
			u.stats.Exhausted = true
			return true
		}
		return false
	})
}

// enumerateCell builds formula ∧ (hashes random XORs) and enumerates up to
// Pivot+1 models. The hashes use the solver's native XOR engine (the same
// capability UniGen3 gets from CryptoMiniSat) rather than CNF ladders.
// full reports that the cell exceeded the pivot; hard reports that a solve
// exhausted its conflict budget.
func (u *UniGenLike) enumerateCell(ctx context.Context) (models [][]bool, full, hard bool) {
	solver := sat.NewSolver(u.formula, sat.Options{Rand: u.rng, RandomPolarity: true, MaxConflicts: 50000})
	for i := 0; i < u.hashes; i++ {
		vars, rhs := u.randomXor()
		if len(vars) == 0 {
			if rhs {
				return nil, false, false // 0 = 1: empty cell
			}
			continue
		}
		if !solver.AddXor(vars, rhs) {
			return nil, false, false
		}
	}
	for len(models) <= u.Pivot {
		if ctx.Err() != nil {
			break
		}
		u.stats.Calls++
		switch solver.Solve() {
		case sat.Unsat:
			return models, false, false
		case sat.Unknown:
			return models, false, true
		}
		model := solver.Model()[:u.formula.NumVars]
		models = append(models, append([]bool(nil), model...))
		// Block this model projected onto the sampling set (UniGen counts
		// distinct assignments of the independent support).
		vars := u.samplingVars()
		block := make([]cnf.Lit, len(vars))
		for i, v := range vars {
			if model[v-1] {
				block[i] = cnf.Lit(-v)
			} else {
				block[i] = cnf.Lit(v)
			}
		}
		if !solver.AddClause(block...) {
			return models, false, false
		}
	}
	return models, true, false
}

// randomXor draws one hash constraint over the sampling set: each variable
// joins with probability 1/2 (optionally truncated to MaxXorWidth) and the
// parity target is a coin flip.
func (u *UniGenLike) randomXor() (vars []int, rhs bool) {
	for _, v := range u.samplingVars() {
		if u.rng.Intn(2) == 0 {
			vars = append(vars, v)
		}
	}
	if u.MaxXorWidth > 0 && len(vars) > u.MaxXorWidth {
		u.rng.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
		vars = vars[:u.MaxXorWidth]
	}
	return vars, u.rng.Intn(2) == 1
}
