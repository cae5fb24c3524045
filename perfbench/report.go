package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named value as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics in insertion order, a sample-count note
// per metric where one applies, and every check that failed.
type report struct {
	names    []string
	metrics  map[string]metric
	notes    map[string]string
	problems []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) set(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(name, format string, args ...any) {
	r.notes[name] = fmt.Sprintf(format, args...)
}

// fail records a failed check; any failure makes the run exit non-zero.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// tally counts operations attempted and failed: errored, refused, or
// delivering an invalid or duplicate solution.
type tally struct{ attempted, failed int }

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// write prints the human-readable metric table, then the result object
// as the last line of w.
func (r *report) write(w io.Writer, t tally) {
	for _, n := range r.names {
		m := r.metrics[n]
		line := fmt.Sprintf("%-34s %14s %s", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
		if s := r.notes[n]; s != "" {
			line += "  (" + s + ")"
		}
		fmt.Fprintln(w, line)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0 && t.failed == 0, t.attempted, t.failed, r.metrics})
	fmt.Fprintln(w, string(out))
}

// ms converts a duration to float milliseconds with all its digits.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the linearly interpolated p-th percentile (0..100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// groupPercentile estimates the p-th percentile of operations that fall
// into groups of very different cost (one group per instance): the
// geometric mean of the group means, times the p-th percentile of every
// operation's ratio to its own group's mean, pooled over all groups. A
// pooled percentile would put the median on the seam between two groups,
// where it jumps from run to run; per-group percentiles would rest on a
// few samples each, and a group median jumps between the modes of a group
// whose streams need one GD tick or two. With one group it is the plain
// percentile.
func groupPercentile(groups [][]float64, p float64) float64 {
	logSum, n := 0.0, 0
	var ratios []float64
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		m := 0.0
		for _, x := range g {
			m += x
		}
		m /= float64(len(g))
		logSum += math.Log(m)
		n++
		for _, x := range g {
			ratios = append(ratios, x/m)
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum/float64(n)) * percentile(ratios, p)
}

// peakRSSMB reads this process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
