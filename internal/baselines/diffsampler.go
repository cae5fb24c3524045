package baselines

import (
	"context"

	"repro/internal/cnf"
	"repro/internal/sampling"
	"repro/internal/tensor"
)

var _ sampling.Sampler = (*DiffSampler)(nil)

// DiffSampler performs gradient descent directly on the flat CNF, the
// approach of the DiffSampler line of work: every variable v gets a soft
// value p_v = σ(V_v); a clause's falsity is the product Π(1 − ℓ) over its
// literal probabilities (ℓ = p for positive, 1−p for negative literals);
// the loss is Σ_c falsity(c)², minimized over batched candidate rows.
// Compared with the core sampler its per-iteration work scales with the
// total literal count of the CNF rather than the reduced multi-level
// function — exactly the gap the paper's transformation removes.
type DiffSampler struct {
	driver
	formula *cnf.Formula

	// BatchSize, Iterations, LearningRate, InitRange mirror core.Config;
	// they may be changed between Stream calls.
	BatchSize    int
	Iterations   int
	LearningRate float32
	InitRange    float32
	Device       tensor.Device
	Seed         int64

	round int64
	vmat  *tensor.Matrix
	probs *tensor.Matrix
	grad  *tensor.Matrix
	hard  []bool
}

// NewDiffSampler builds the sampler with defaults of batch 1024, lr 10 and
// 20 GD iterations. Unlike the core sampler (5 iterations suffice on the
// reduced multi-level function), GD on the flat CNF must also drive every
// intermediate Tseitin variable into consistency, which needs several times
// more iterations — this gap is part of the paper's reported advantage.
func NewDiffSampler(f *cnf.Formula, seed int64, dev tensor.Device) *DiffSampler {
	return &DiffSampler{
		driver:       driver{pool: newPool(f)},
		formula:      f,
		BatchSize:    1024,
		Iterations:   20,
		LearningRate: 10,
		InitRange:    2,
		Device:       dev,
		Seed:         seed,
	}
}

func (d *DiffSampler) alloc() {
	n := d.formula.NumVars
	d.vmat = tensor.NewMatrix(d.BatchSize, n)
	d.probs = tensor.NewMatrix(d.BatchSize, n)
	d.grad = tensor.NewMatrix(d.BatchSize, n)
	d.hard = make([]bool, d.BatchSize*n)
}

// Name implements sampling.Sampler.
func (d *DiffSampler) Name() string { return "diffsampler" }

// Stream implements sampling.Sampler: one GD round over the batch per
// step. The matrices are (re)allocated here, so a BatchSize set after
// construction takes effect.
func (d *DiffSampler) Stream(ctx context.Context, target int, sink sampling.Sink) (sampling.Stats, error) {
	if d.vmat == nil || d.vmat.Rows != d.BatchSize {
		d.alloc()
	}
	stale := 0
	return d.stream(ctx, target, sink, func() bool {
		gained := d.roundOnce()
		d.stats.Calls++
		if gained > 0 {
			stale = 0
			return false
		}
		stale++
		if stale >= 64 && d.pool.size() > 0 {
			d.stats.Exhausted = true
			return true
		}
		// A GD sampler can also simply fail to converge on an instance;
		// give up eventually even with zero solutions.
		return stale >= 256
	})
}

// roundOnce runs one GD round and folds verified unique models.
func (d *DiffSampler) roundOnce() int {
	seed := d.Seed + 0x2545F491*d.round
	d.round++
	d.vmat.Randomize(d.Device, seed, -d.InitRange, d.InitRange)
	n := d.formula.NumVars
	for it := 0; it < d.Iterations; it++ {
		tensor.Sigmoid(d.Device, d.probs, d.vmat)
		d.Device.Run(d.BatchSize, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				p := d.probs.Row(r)
				g := d.grad.Row(r)
				// Zero this row's gradient inside the striped pass instead
				// of a serial full-matrix Fill between iterations.
				for i := range g {
					g[i] = 0
				}
				for _, c := range d.formula.Clauses {
					// falsity = Π (1 - ℓ); ∂falsity/∂ℓ_i = -Π_{j≠i}(1-ℓ_j).
					falsity := float32(1)
					for _, l := range c {
						falsity *= 1 - litProb(p, l)
					}
					if falsity == 0 {
						continue
					}
					for _, l := range c {
						rest := float32(1)
						for _, m := range c {
							if m != l {
								rest *= 1 - litProb(p, m)
							}
						}
						// dL/dℓ = 2·falsity·(-rest); dℓ/dp = ±1.
						dl := -2 * falsity * rest
						if l.Positive() {
							g[l.Var()-1] += dl
						} else {
							g[l.Var()-1] -= dl
						}
					}
				}
				// Chain through the sigmoid and step.
				v := d.vmat.Row(r)
				for i := 0; i < n; i++ {
					v[i] -= d.LearningRate * g[i] * p[i] * (1 - p[i])
				}
			}
		})
	}
	tensor.Harden(d.Device, d.hard, d.vmat, 0)
	gained := 0
	for r := 0; r < d.BatchSize; r++ {
		if d.pool.add(d.hard[r*n : (r+1)*n]) {
			gained++
		}
	}
	return gained
}

func litProb(p []float32, l cnf.Lit) float32 {
	if l.Positive() {
		return p[l.Var()-1]
	}
	return 1 - p[l.Var()-1]
}
