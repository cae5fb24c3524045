package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/harness"
	"repro/internal/quality"
)

// TestGates pins every -check threshold: each gate passes a row set that
// sits exactly on its thresholds and fails one row set per threshold edge.
func TestGates(t *testing.T) {
	smoke := benchgen.SmallSuite()
	sched := func(cont, round float64) []harness.SchedRow {
		return []harness.SchedRow{
			{Instance: smoke[0].Name, ContSolS: 100, RoundSolS: 100},
			{Instance: smoke[1].Name, ContSolS: cont, RoundSolS: round},
		}
	}
	scaleRow := func(name string, speedup float64, identical bool) harness.ScaleRow {
		return harness.ScaleRow{Instance: name, Identical: identical, Arms: []harness.ScaleArm{
			{Workers: 1, SolS: 100, Speedup: 1},
			{Workers: 4, SolS: 100 * speedup, Speedup: speedup},
		}}
	}
	cacheRows := func(second float64) []harness.CacheRow {
		return []harness.CacheRow{{Instance: "a", Speedup: 5}, {Instance: "b", Speedup: second}}
	}
	qualityRows := func(cov, p float64) []harness.QualityRow {
		return []harness.QualityRow{
			{Instance: "a", Report: quality.Report{Coverage: 1, P: 1e-3}},
			{Instance: "b", Report: quality.Report{Coverage: cov, P: p}},
		}
	}
	countable := benchgen.QualitySuite()
	assumeRows := func(speedup, cov, p float64) []harness.AssumeRow {
		return []harness.AssumeRow{
			{Instance: "timing-a", Speedup: 5},
			{Instance: "timing-b", Speedup: speedup},
			// Quality-suite rows never count toward the speedup leg.
			{Instance: countable[0].Name, Speedup: 100, QualityMeasured: true, Coverage: 1, P: 1e-3},
			{Instance: countable[1].Name, Speedup: 100, QualityMeasured: true, Coverage: cov, P: p},
		}
	}

	cases := []struct {
		name string
		gate func(*report) []string
		rep  report
		fail string // "" = must pass; else a substring of some failure
	}{
		{"sched/pass", gateSched, report{Sched: sched(100, 100)}, ""},
		{"sched/slower", gateSched, report{Sched: sched(99, 100)}, "continuous 99 sol/s < round 100"},
		{"sched/unmeasured", gateSched, report{Sched: sched(0, 0)}, "mode not measured"},
		{"sched/one-instance", gateSched, report{Sched: sched(100, 100)[:1]}, "only 1 smoke instances"},
		{"sched/non-smoke-ignored", gateSched, report{Sched: append(sched(100, 100),
			harness.SchedRow{Instance: "not-smoke", ContSolS: 1, RoundSolS: 2})}, ""},

		{"scale/pass", gateScale, report{HostCPUs: 4, Scale: []harness.ScaleRow{
			scaleRow("a", 3, true), scaleRow("b", 3, true)}}, ""},
		{"scale/diverged", gateScale, report{HostCPUs: 4, Scale: []harness.ScaleRow{
			scaleRow("a", 3, true), scaleRow("b", 3, false)}}, "b: solution streams diverged"},
		{"scale/slow", gateScale, report{HostCPUs: 4, Scale: []harness.ScaleRow{
			scaleRow("a", 3, true), scaleRow("b", 2.99, true)}}, "only 1 instances at 3x"},
		{"scale/slow-few-cpus", gateScale, report{HostCPUs: 2, Scale: []harness.ScaleRow{
			scaleRow("a", 1, true), scaleRow("b", 1, true)}}, ""},
		{"scale/diverged-few-cpus", gateScale, report{HostCPUs: 2, Scale: []harness.ScaleRow{
			scaleRow("a", 1, false)}}, "a: solution streams diverged"},

		{"cache/pass", gateCache, report{CacheTier: cacheRows(5)}, ""},
		{"cache/one-fast", gateCache, report{CacheTier: cacheRows(4.99)}, "only 1 instances loaded 5x faster"},

		{"quality/pass", gateQuality, report{Quality: qualityRows(1, 1e-3)}, ""},
		{"quality/coverage", gateQuality, report{Quality: qualityRows(0.999, 0.5)}, "b: coverage 0.9990 below floor"},
		{"quality/p", gateQuality, report{Quality: qualityRows(1, 0.00099)}, "b: uniformity p=0.00099 below floor"},
		{"quality/one-instance", gateQuality, report{Quality: qualityRows(1, 1)[:1]}, "only 1 measured instances"},

		{"assume/pass", gateAssume, report{Assume: assumeRows(5, 1, 1e-3)}, ""},
		{"assume/slow", gateAssume, report{Assume: assumeRows(4.99, 1, 1)}, "only 1 instances specialized 5x faster"},
		{"assume/coverage", gateAssume, report{Assume: assumeRows(5, 0.999, 1)}, "coverage 0.9990 below floor"},
		{"assume/p", gateAssume, report{Assume: assumeRows(5, 1, 0.00099)}, "uniformity p=0.00099 below floor"},
		{"assume/one-conditioned", gateAssume, report{Assume: assumeRows(5, 1, 1)[:3]}, "only 1 conditioned-quality instances"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fails := tc.gate(&tc.rep)
			if tc.fail == "" {
				if len(fails) > 0 {
					t.Fatalf("gate failed a passing row set: %q", fails)
				}
				return
			}
			if !strings.Contains(strings.Join(fails, "\n"), tc.fail) {
				t.Fatalf("failures %q, want one containing %q", fails, tc.fail)
			}
		})
	}
}

// TestGatesSkippedWhenInterrupted pins SIGINT handling: an interrupted run
// renders partial rows, which no gate may pass or fail on.
func TestGatesSkippedWhenInterrupted(t *testing.T) {
	empty := &report{HostCPUs: 16} // what an early interrupt leaves behind
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	if !checkGates(ctx, experiments, empty, &out) {
		t.Fatalf("interrupted run failed its gates:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "gates skipped") {
		t.Fatalf("no skip note on stderr: %q", out.String())
	}

	// The same rows fail every gate when the run was not interrupted.
	out.Reset()
	if checkGates(context.Background(), experiments, empty, &out) {
		t.Fatal("uninterrupted empty run passed its gates")
	}
	for _, e := range experiments {
		if e.gate != nil && !strings.Contains(out.String(), "paperbench: "+e.name+" check FAILED") {
			t.Errorf("gate %s did not fail an empty run:\n%s", e.name, out.String())
		}
	}
}
