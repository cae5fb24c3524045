package main

import (
	"fmt"

	"repro/internal/benchgen"
)

// The -check thresholds. Every "at least" guard needs minInstances
// measured instances, so a run that measured (almost) nothing cannot pass.
const (
	minInstances = 2
	// scaleSpeedup is the 4-worker arm's floor over the 1-worker arm.
	// Speedup only materializes when the host has the cores, so below
	// scaleMinCPUs the scale gate keeps only its stream-identity leg.
	scaleSpeedup = 3.0
	scaleMinCPUs = 4
	// cacheSpeedup is cold compile over store load. Tiny instances compile
	// in microseconds, where the constant per-file cost hides the codec's
	// win, hence "on at least two instances" rather than "on every".
	cacheSpeedup = 5.0
	// assumeSpeedup is cold compile over re-specialization, read on the
	// Table II instances only: the quality suite compiles in microseconds.
	assumeSpeedup = 5.0
	// Sample quality on an exactly-counted space. Coverage must be total:
	// the sampler's claim is "many distinct solutions", and anything below
	// every model is a regression. The uniformity smoke's p floor is
	// generous: fixed seeds make the measurement deterministic, observed
	// values sit two orders of magnitude above it, and a sampler that
	// collapses onto a subset of models scores p < 1e-20.
	coverageFloor = 1.0
	pFloor        = 1e-3
)

// gateSched requires continuous sol/s >= round sol/s on every small smoke
// instance in the run — the scheduler's regression gate.
func gateSched(rep *report) []string {
	smoke := names(benchgen.SmallSuite())
	var fails []string
	checked := 0
	for _, r := range rep.Sched {
		if !smoke[r.Instance] {
			continue
		}
		checked++
		switch {
		case r.ContSolS <= 0 || r.RoundSolS <= 0:
			// A failed run reports 0 sol/s on both sides, and 0 >= 0 must
			// not count as the scheduler passing.
			fails = append(fails, fmt.Sprintf("%s: mode not measured (cont %.0f, round %.0f sol/s)",
				r.Instance, r.ContSolS, r.RoundSolS))
		case r.ContSolS < r.RoundSolS:
			fails = append(fails, fmt.Sprintf("%s: continuous %.0f sol/s < round %.0f sol/s",
				r.Instance, r.ContSolS, r.RoundSolS))
		}
	}
	return atLeast(fails, checked, "smoke instances")
}

// gateScale requires bit-identical streams across worker counts and, on a
// host with the cores, the multi-core speedup — the parallel tick's gate.
func gateScale(rep *report) []string {
	var fails []string
	for _, r := range rep.Scale {
		if !r.Identical {
			fails = append(fails, r.Instance+": solution streams diverged across worker counts")
		}
	}
	if rep.HostCPUs < scaleMinCPUs {
		return fails
	}
	fast := 0
	for _, r := range rep.Scale {
		for _, a := range r.Arms {
			if a.Workers == 4 && a.SolS > 0 && a.Speedup >= scaleSpeedup {
				fast++
			}
		}
	}
	return atLeast(fails, fast, fmt.Sprintf("instances at %.0fx with 4 workers", scaleSpeedup))
}

// gateCache requires store load to beat cold compile decisively — the
// gate for the GDSP codec and the durable compile tier.
func gateCache(rep *report) []string {
	fast := 0
	for _, r := range rep.CacheTier {
		if r.Speedup >= cacheSpeedup {
			fast++
		}
	}
	return atLeast(nil, fast, fmt.Sprintf("instances loaded %.0fx faster than cold compile", cacheSpeedup))
}

// gateQuality requires full coverage and the uniformity smoke on every
// exactly-counted instance.
func gateQuality(rep *report) []string {
	var fails []string
	for _, r := range rep.Quality {
		fails = qualityFloors(fails, r.Instance, r.Coverage, r.P)
	}
	return atLeast(fails, len(rep.Quality), "measured instances")
}

// gateAssume requires re-specialization to beat cold compile on the
// Table II instances and the quality floors on every conditioned space the
// oracle could count — the gate for ?assume=.
func gateAssume(rep *report) []string {
	countable := names(benchgen.QualitySuite())
	var fails []string
	fast, measured := 0, 0
	for _, r := range rep.Assume {
		if !countable[r.Instance] && r.Speedup >= assumeSpeedup {
			fast++
		}
		if r.QualityMeasured {
			measured++
			fails = qualityFloors(fails, r.Instance+" (conditioned)", r.Coverage, r.P)
		}
	}
	fails = atLeast(fails, fast, fmt.Sprintf("instances specialized %.0fx faster than cold compile", assumeSpeedup))
	return atLeast(fails, measured, "conditioned-quality instances")
}

// qualityFloors appends a failure per quality floor instance misses.
func qualityFloors(fails []string, instance string, coverage, p float64) []string {
	if coverage < coverageFloor {
		fails = append(fails, fmt.Sprintf("%s: coverage %.4f below floor %.4f", instance, coverage, coverageFloor))
	}
	if p < pFloor {
		fails = append(fails, fmt.Sprintf("%s: uniformity p=%.3g below floor %.3g", instance, p, pFloor))
	}
	return fails
}

// atLeast appends a failure unless got reaches minInstances.
func atLeast(fails []string, got int, what string) []string {
	if got < minInstances {
		fails = append(fails, fmt.Sprintf("only %d %s, need >= %d", got, what, minInstances))
	}
	return fails
}

func names(ins []*benchgen.Instance) map[string]bool {
	set := make(map[string]bool, len(ins))
	for _, in := range ins {
		set[in.Name] = true
	}
	return set
}
