// Package quality is the sample-quality oracle for the projected-sampling
// workload: it computes exact (projected) model counts with the BDD
// package and scores a sampler's output against them — coverage (fraction
// of the exact solution space observed) and chi-square uniformity over the
// empirical retirement frequencies, with a real p-value. Every later
// scheduling or weighting change is gated on these measurements: a knob
// that buys throughput by collapsing coverage or skewing the sample
// distribution shows up here, not in sol/s.
//
// The oracle is exact, so it only applies to formulas small enough for a
// BDD of the full CNF (ExactCount enforces variable and node budgets).
// That is the point: statistical correctness is established on an
// exhaustively checkable suite and the mechanisms it certifies —
// projected dedup and the continuous scheduler — are the same code paths
// production instances run.
package quality

import (
	"fmt"
	"math"

	"repro/internal/bdd"
	"repro/internal/cnf"
)

// CountLimits bounds the BDD construction behind ExactCount. The zero
// value selects the defaults noted on each field.
type CountLimits struct {
	// MaxVars rejects formulas with more variables (default 64): past that
	// the count cannot be trusted to stay within float64 exactness anyway.
	MaxVars int
	// MaxNodes rejects the build when the manager grows past this many BDD
	// nodes (default 1<<20) — the formula is too entangled for the oracle.
	// The check runs between BDD operations (per conjoined clause, per
	// quantified variable), so it is a guard rail, not a hard memory cap:
	// a single apply can overshoot the budget before the check fires.
	MaxNodes int
}

func (l CountLimits) withDefaults() CountLimits {
	if l.MaxVars <= 0 {
		l.MaxVars = 64
	}
	if l.MaxNodes <= 0 {
		l.MaxNodes = 1 << 20
	}
	return l
}

// ErrTooLarge marks a formula the exact oracle refuses to count.
var ErrTooLarge = fmt.Errorf("quality: formula exceeds exact-count limits")

// ExactCount returns the exact number of models of f projected onto the
// given variables (nil or empty projection counts full models over
// 1..NumVars). The count is computed on a BDD of the whole CNF: non-
// projection variables are existentially quantified away and the residual
// function counted over the projection set. Counts are exact for results
// below 2^53.
//
// The oracle counts models of the CNF itself — ground truth, not the
// sampler's reachable set. Extraction gives every variable a circuit node
// (a variable the recovered function does not depend on is a free primary
// input), so the two coincide on any formula: coverage below 1.0 at
// exhaustion is a finding about the sampler, not an oracle bug.
func ExactCount(f *cnf.Formula, projection []int, lim CountLimits) (float64, error) {
	lim = lim.withDefaults()
	if f.NumVars > lim.MaxVars {
		return 0, fmt.Errorf("%w: %d variables > %d", ErrTooLarge, f.NumVars, lim.MaxVars)
	}
	if err := cnf.ValidateProjection(f.NumVars, projection); err != nil {
		return 0, err
	}
	order := make([]int, f.NumVars)
	for i := range order {
		order[i] = i + 1
	}
	m := bdd.New(order...)
	root := bdd.TrueRef
	for ci, c := range f.Clauses {
		cl := bdd.FalseRef
		for _, l := range c {
			if l.Positive() {
				cl = m.Or(cl, m.Var(l.Var()))
			} else {
				cl = m.Or(cl, m.NVar(l.Var()))
			}
		}
		root = m.And(root, cl)
		if m.NumNodes() > lim.MaxNodes {
			return 0, fmt.Errorf("%w: %d BDD nodes after clause %d > %d",
				ErrTooLarge, m.NumNodes(), ci, lim.MaxNodes)
		}
		if root == bdd.FalseRef {
			return 0, nil
		}
	}
	if len(projection) == 0 {
		return m.SatCount(root), nil
	}
	inProj := make(map[int]bool, len(projection))
	for _, v := range projection {
		inProj[v] = true
	}
	// Quantify one variable at a time so the node budget is enforced at
	// every step of the elimination, not only after the whole sweep.
	proj := root
	for v := 1; v <= f.NumVars && proj != bdd.TrueRef && proj != bdd.FalseRef; v++ {
		if inProj[v] {
			continue
		}
		proj = m.Exists(proj, v)
		if m.NumNodes() > lim.MaxNodes {
			return 0, fmt.Errorf("%w: %d BDD nodes while quantifying variable %d > %d",
				ErrTooLarge, m.NumNodes(), v, lim.MaxNodes)
		}
	}
	// SatCount still ranges over the full variable order; each quantified
	// variable is free in the residual function and contributes a factor
	// of 2 that must come back out.
	free := f.NumVars - len(projection)
	return m.SatCount(proj) / math.Pow(2, float64(free)), nil
}

// ExactCountAssume is the conditioned oracle: the exact number of models
// of f that agree with the assumption literals, projected onto the given
// variables. It counts the hand-conditioned CNF (cnf.Formula.Condition),
// so a specialized sampler gated against it is being measured against
// ground truth derived independently of the specialization machinery —
// the same separation the unconditioned gate gets from counting the CNF
// rather than the circuit. Invalid assumptions return the validation
// error; an assumption set that empties the space counts 0, not an error.
func ExactCountAssume(f *cnf.Formula, projection []int, assume []cnf.Lit, lim CountLimits) (float64, error) {
	if len(assume) == 0 {
		return ExactCount(f, projection, lim)
	}
	cond, err := f.Condition(assume)
	if err != nil {
		return 0, err
	}
	return ExactCount(cond, projection, lim)
}

// Coverage returns the fraction of an exact solution space a sampler
// observed: distinct / exact (0 when the space is empty or unknown).
func Coverage(distinct int, exact float64) float64 {
	if exact <= 0 {
		return 0
	}
	return float64(distinct) / exact
}

// ChiSquareUniform scores the empirical retirement frequencies against the
// uniform distribution over an exact solution space of `exact` cells:
// observed cells contribute (c−E)²/E, each unseen cell its expected count
// E. It returns the statistic, the degrees of freedom (exact−1), and the
// p-value (upper-tail survival probability): small p means "a uniform
// sampler would essentially never produce frequencies this skewed".
func ChiSquareUniform(counts []int, exact float64) (stat float64, dof int, p float64) {
	total := 0
	for _, c := range counts {
		total += c
	}
	if exact <= 1 || total == 0 {
		return 0, 0, 1
	}
	expected := float64(total) / exact
	for _, c := range counts {
		d := float64(c) - expected
		stat += d * d / expected
	}
	unseen := exact - float64(len(counts))
	stat += unseen * expected
	dof = int(math.Round(exact)) - 1
	return stat, dof, ChiSquareSurvival(stat, dof)
}

// Report is one instance's quality measurement.
type Report struct {
	Exact     float64 `json:"exact"`      // exact (projected) model count
	Distinct  int     `json:"distinct"`   // projected-distinct solutions observed
	Samples   int     `json:"samples"`    // valid retired candidates (with duplicates)
	Coverage  float64 `json:"coverage"`   // Distinct / Exact
	ChiSquare float64 `json:"chi_square"` // uniformity statistic
	DoF       int     `json:"dof"`
	P         float64 `json:"p"` // upper-tail p-value of ChiSquare
}

// Evaluate folds a sampler's per-solution retirement tallies
// (core.Sampler.SolutionHits) and an exact model count into a Report.
func Evaluate(hits []int, exact float64) Report {
	r := Report{Exact: exact, Distinct: len(hits)}
	for _, h := range hits {
		r.Samples += h
	}
	r.Coverage = Coverage(r.Distinct, exact)
	r.ChiSquare, r.DoF, r.P = ChiSquareUniform(hits, exact)
	return r
}

// ChiSquareSurvival returns P(X >= stat) for X chi-square distributed with
// dof degrees of freedom: the regularized upper incomplete gamma function
// Q(dof/2, stat/2).
func ChiSquareSurvival(stat float64, dof int) float64 {
	if dof <= 0 {
		return 1
	}
	if stat <= 0 {
		return 1
	}
	return igamc(float64(dof)/2, stat/2)
}

// igamc is the regularized upper incomplete gamma function Q(a, x), via
// the standard split: a power series for P(a, x) when x < a+1, a Lentz
// continued fraction for Q(a, x) otherwise (Numerical Recipes §6.2).
func igamc(a, x float64) float64 {
	if x <= 0 || a <= 0 {
		return 1
	}
	if x < a+1 {
		return 1 - igamSeries(a, x)
	}
	return igamCF(a, x)
}

// igamSeries computes P(a, x) by series expansion (valid for x < a+1).
func igamSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for n := 0; n < 500; n++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// igamCF computes Q(a, x) by modified-Lentz continued fraction (valid for
// x >= a+1).
func igamCF(a, x float64) float64 {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
