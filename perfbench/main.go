// Command perfbench is the repository benchmark. It runs one workload
// against the sampler — offline streams through sampling.Session, or
// closed-loop requests against an in-process satserved — checks every
// delivered solution, and prints its metrics by name and unit, ending
// with one JSON result object on the last line of standard output.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// once untraced and once with spans around every call into a layer, and
// reports the per-layer metrics, the tracing overhead, and the outcome of
// the attribution, workload and exact-count self-checks. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/tensor"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration // measured time of one run
	dir     string        // scratch directory, removed when the run ends
}

// workload is one benchmark input set with its untraced and traced runs.
type workload struct {
	e2e   func(runConfig, *report) tally
	trace func(runConfig, *report) tally
}

var workloads = map[string]workload{
	"table2":     offlineWorkload(table2),
	"gd-hard":    offlineWorkload(gdHard),
	"serve-warm": serveWorkload(serveWarm),
	"serve-cold": serveWorkload(serveCold),
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed: generates every input the program sees")
	seconds := flag.Float64("seconds", 8, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	scratch := flag.String("scratch", ".bench_build", "directory for the run's temporary files")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), dir: dir}

	r := newReport()
	var t tally
	if *trace == 1 {
		t = w.trace(cfg, r)
	} else {
		t = w.e2e(cfg, r)
	}
	os.RemoveAll(dir)

	// Every workload samples on a one-worker tensor device.
	fmt.Printf("# workload=%s seed=%d trace=%d seconds=%g host_cpus=%d gomaxprocs=%d device_workers=1 go=%s\n",
		*name, *seed, *trace, *seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	r.write(os.Stdout, t)
	if len(r.problems) > 0 || t.failed > 0 {
		os.Exit(1)
	}
}

// mix derives an independent, non-negative seed from a base seed and a
// path of indices.
func mix(seed int64, path ...int) int64 {
	h := tensor.SplitMix64(uint64(seed))
	for _, p := range path {
		h = tensor.SplitMix64(h ^ uint64(p+1)*0x9E3779B97F4A7C15)
	}
	return int64(h >> 1)
}

// A run sets its workload up at least minSetups times, and again while
// the set-ups so far took less than setupBudget (up to maxSetups), so that
// cheap set-ups are timed often enough for a steady median. setup_s
// reports the median; the last set-up serves the measurement.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
)

// repeatSetup runs setup as often as the constants above say, releasing
// all but the last environment, and returns that one with the set-up
// times in seconds.
func repeatSetup[T any](setup func() (T, error), release func(T)) (T, []float64, error) {
	var env T
	var times []float64
	var total time.Duration
	for i := 0; i < minSetups || (total < setupBudget && i < maxSetups); i++ {
		if i > 0 {
			release(env)
		}
		runtime.GC()
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			release(e)
			var zero T
			return zero, nil, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
		env = e
	}
	runtime.GC()
	return env, times, nil
}

// op is one measured operation: an offline stream or a served request.
type op struct {
	group int           // instance index offline; 0 when serving
	wall  time.Duration // stream start to last solution, or send to done line
	ttfs  time.Duration // to the first delivered solution
	sols  int           // solutions delivered
	ok    bool
}

// window is a slice of a run the throughputs are measured over: one
// cycle over the instances offline, one second of wall time when serving.
type window struct {
	ops, sols float64       // operations completed ok and their solutions
	span      time.Duration // stream time offline, wall time when serving
}

// setE2E reports the nine end-to-end metrics. Throughputs are the median
// over the run's windows, so a burst of contention from outside the
// process moves them less than it would move a total over the run.
func setE2E(r *report, ops []op, groups int, windows []window, setup []float64, t tally) {
	lat := make([][]float64, groups)
	ttfs := make([][]float64, groups)
	done := 0
	for _, o := range ops {
		if !o.ok {
			continue
		}
		done++
		lat[o.group] = append(lat[o.group], ms(o.wall))
		ttfs[o.group] = append(ttfs[o.group], ms(o.ttfs))
	}
	var solRate, opRate []float64
	for _, w := range windows {
		solRate = append(solRate, w.sols/w.span.Seconds())
		opRate = append(opRate, w.ops/w.span.Seconds())
	}
	r.set("sol_per_s", "1/s", median(solRate))
	r.note("sol_per_s", "median of %d windows", len(windows))
	r.set("ops_per_s", "1/s", median(opRate))
	r.note("ops_per_s", "median of %d windows", len(windows))
	for _, p := range []float64{50, 90} {
		n := fmt.Sprintf("n=%d in %d groups", done, groups)
		r.set(fmt.Sprintf("op_p%.0f_ms", p), "ms", groupPercentile(lat, p))
		r.note(fmt.Sprintf("op_p%.0f_ms", p), "%s", n)
		r.set(fmt.Sprintf("ttfs_p%.0f_ms", p), "ms", groupPercentile(ttfs, p))
		r.note(fmt.Sprintf("ttfs_p%.0f_ms", p), "%s", n)
	}
	r.set("ok_ratio", "ratio", float64(t.attempted-t.failed)/float64(max(t.attempted, 1)))
	r.note("ok_ratio", "%d of %d operations failed", t.failed, t.attempted)
	r.set("setup_s", "s", median(setup))
	r.note("setup_s", "median of %d set-ups", len(setup))
	r.set("peak_rss_mb", "MiB", peakRSSMB())
}
