package baselines

import (
	"context"
	"math/rand"

	"repro/internal/cnf"
	"repro/internal/sampling"
	"repro/internal/sat"
)

var _ sampling.Sampler = (*CMSGenLike)(nil)

// CMSGenLike samples by repeated randomized CDCL descents: every decision
// takes a random polarity and initial activities are perturbed, so each
// Solve lands on a different model. This mirrors CMSGen's design point —
// maximize sampling speed by reusing a tuned CDCL solver with randomized
// heuristics, with no uniformity guarantee.
type CMSGenLike struct {
	driver
	solver *sat.Solver
}

// NewCMSGenLike builds the sampler; seed controls the randomized descents.
func NewCMSGenLike(f *cnf.Formula, seed int64) *CMSGenLike {
	return &CMSGenLike{
		driver: driver{pool: newPool(f)},
		solver: sat.NewSolver(f, sat.Options{
			Rand:              rand.New(rand.NewSource(seed)),
			RandomPolarity:    true,
			RandomizeActivity: true,
		}),
	}
}

// Name implements sampling.Sampler.
func (c *CMSGenLike) Name() string { return "cmsgen-like" }

// Stream implements sampling.Sampler: one randomized descent per step.
func (c *CMSGenLike) Stream(ctx context.Context, target int, sink sampling.Sink) (sampling.Stats, error) {
	stale := 0
	return c.stream(ctx, target, sink, func() bool {
		c.stats.Calls++
		verdict := c.solver.Solve()
		if verdict == sat.Unsat {
			c.stats.Exhausted = c.pool.size() > 0 || c.stats.Calls == 1
			return true
		}
		if verdict != sat.Sat {
			return true
		}
		if c.pool.add(c.solver.Model()) {
			stale = 0
			return false
		}
		// Random descents revisit models on skewed spaces; a long
		// duplicate streak means the reachable set is effectively
		// exhausted for this heuristic.
		stale++
		if stale > 256 {
			c.stats.Exhausted = true
			return true
		}
		return false
	})
}
