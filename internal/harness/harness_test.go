package harness

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/cnf"
	"repro/internal/tensor"
)

func fastOpts() RunOptions {
	return RunOptions{
		Target:  20,
		Timeout: 3 * time.Second,
		Device:  tensor.ParallelN(2),
		Seed:    7,
	}
}

func TestCoreSessionAdapter(t *testing.T) {
	in := benchgen.SmallSuite()[0]
	s, err := NewCoreSession(in.Formula, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "this-work" {
		t.Errorf("name = %q", s.Name())
	}
	st := s.SampleUntil(10, 3*time.Second)
	if st.Unique == 0 {
		t.Fatal("adapter found no solutions")
	}
	for _, m := range s.Solutions() {
		if !in.Formula.Sat(m) {
			t.Fatal("adapter returned invalid full assignment")
		}
	}
}

func TestRunTable2SmallSuite(t *testing.T) {
	rows := RunTable2(context.Background(), benchgen.SmallSuite(), fastOpts())
	if len(rows) != 4 {
		t.Fatalf("rows = %d want 4", len(rows))
	}
	for _, r := range rows {
		if r.Unique["this-work"] == 0 {
			t.Errorf("%s: core sampler found nothing", r.Instance)
		}
		if r.Throughput["this-work"] <= 0 {
			t.Errorf("%s: core throughput missing", r.Instance)
		}
	}
}

func TestRunTable2CoreWins(t *testing.T) {
	// The paper's headline claim holds at benchmark scale (on toy instances
	// a CDCL descent is sub-millisecond and wins on fixed overheads, which
	// matches the paper's framing of GD sampling as a throughput play).
	// Use a Table II-scale or-chain and require a core-sampler win.
	in := benchgen.OrChain("or-50-10-7-UC-10", 50, 4, 5010)
	opts := fastOpts()
	opts.Target = 1000
	opts.Timeout = 5 * time.Second
	opts.Device = tensor.Parallel()
	rows := RunTable2(context.Background(), []*benchgen.Instance{in}, opts)
	if len(rows) != 1 {
		t.Fatal("missing row")
	}
	if rows[0].Speedup <= 1 {
		t.Errorf("core sampler speedup = %.2fx on %s (throughputs: %v)",
			rows[0].Speedup, in.Name, rows[0].Throughput)
	}
}

func TestRunSchedComparesModes(t *testing.T) {
	ins := benchgen.SmallSuite()[:2]
	opts := fastOpts()
	opts.Target = 100
	rows := RunSched(context.Background(), ins, 1, opts)
	if len(rows) != len(ins) {
		t.Fatalf("rows = %d want %d", len(rows), len(ins))
	}
	for _, r := range rows {
		if r.ContUnique == 0 || r.RoundUnique == 0 {
			t.Errorf("%s: a mode found nothing: %+v", r.Instance, r)
		}
		if r.ContSolS <= 0 || r.RoundSolS <= 0 || r.Ratio <= 0 {
			t.Errorf("%s: throughput not measured: %+v", r.Instance, r)
		}
		if r.Retired == 0 {
			t.Errorf("%s: continuous run retired nothing", r.Instance)
		}
	}
}

func TestRunQualityScoresBothCheckpoints(t *testing.T) {
	rows, err := RunQuality(context.Background(), benchgen.QualitySuite(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(benchgen.QualitySuite()) {
		t.Fatalf("%d rows, want one per quality instance", len(rows))
	}
	for _, r := range rows {
		// Coverage is read at saturation, uniformity at the bounded budget.
		if r.Exact <= 0 || r.Coverage != 1 || r.Distinct != int(r.Exact) {
			t.Errorf("%s: distinct %d of %.0f models at saturation", r.Instance, r.Distinct, r.Exact)
		}
		if r.Samples < qualitySampleBudget*int(r.Exact) || r.DoF != int(r.Exact)-1 {
			t.Errorf("%s: uniformity checkpoint at %d samples, dof %d", r.Instance, r.Samples, r.DoF)
		}
	}
}

func TestRunFig2ProducesMonotonePoints(t *testing.T) {
	pts := RunFig2(context.Background(), benchgen.SmallSuite()[:2], []int{5, 15}, fastOpts())
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	// Per sampler+instance, latency must be non-decreasing in unique count.
	type key struct{ s, i string }
	last := map[key]Fig2Point{}
	for _, p := range pts {
		k := key{p.Sampler, p.Instance}
		if prev, ok := last[k]; ok {
			if p.Unique >= prev.Unique && p.LatencyMs < prev.LatencyMs {
				t.Errorf("%v: latency decreased with more solutions", k)
			}
		}
		last[k] = p
	}
}

func TestRunFig3CurvesAndMemory(t *testing.T) {
	res := RunFig3(context.Background(), benchgen.SmallSuite()[:2], 6, []int{100, 1000}, fastOpts())
	if len(res) != 2 {
		t.Fatalf("results = %d want 2", len(res))
	}
	for _, r := range res {
		if len(r.Curve) != 7 { // iterations + 1
			t.Errorf("%s: curve length %d want 7", r.Instance, len(r.Curve))
		}
		for i := 1; i < len(r.Curve); i++ {
			if r.Curve[i] < r.Curve[i-1] {
				t.Errorf("%s: curve not monotone: %v", r.Instance, r.Curve)
			}
		}
		if r.MemoryMB[1000] <= r.MemoryMB[100] {
			t.Errorf("%s: memory not increasing in batch", r.Instance)
		}
	}
}

func TestRunFig4Ablation(t *testing.T) {
	rows := RunFig4(context.Background(), benchgen.SmallSuite()[2:3], fastOpts())
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.OpsReduction <= 1 {
		t.Errorf("ops reduction = %.2f want > 1", r.OpsReduction)
	}
	if r.TransformTime <= 0 {
		t.Error("transform time missing")
	}
	if r.SeqThroughput <= 0 || r.ParThroughput <= 0 {
		t.Error("throughput measurements missing")
	}
}

func TestRenderers(t *testing.T) {
	opts := fastOpts()
	rows := RunTable2(context.Background(), benchgen.SmallSuite()[:1], opts)
	var b strings.Builder
	RenderTable2(&b, rows)
	if !strings.Contains(b.String(), rows[0].Instance) {
		t.Error("table render missing instance")
	}
	b.Reset()
	RenderTable2CSV(&b, rows)
	if !strings.Contains(b.String(), "instance,pi,po") {
		t.Error("CSV header missing")
	}

	pts := []Fig2Point{{Sampler: "x", Instance: "i", Unique: 5, LatencyMs: 1.5}}
	b.Reset()
	RenderFig2(&b, pts)
	if !strings.Contains(b.String(), "sampler: x") {
		t.Error("fig2 render missing sampler")
	}
	b.Reset()
	RenderFig2CSV(&b, pts)
	if !strings.Contains(b.String(), "x,i,5,1.500") {
		t.Error("fig2 CSV wrong")
	}

	f3 := []Fig3Result{{Instance: "i", Curve: []int{0, 1}, MemoryMB: map[int]float64{10: 1.5}}}
	b.Reset()
	RenderFig3(&b, f3)
	if !strings.Contains(b.String(), "GD iteration") {
		t.Error("fig3 render wrong")
	}

	f4 := []Fig4Row{{Instance: "i", Speedup: 2, OpsCNF: 10, OpsCircuit: 5, OpsReduction: 2}}
	b.Reset()
	RenderFig4(&b, f4)
	if !strings.Contains(b.String(), "Speedup") {
		t.Error("fig4 render wrong")
	}
}

func TestHumanRate(t *testing.T) {
	cases := map[float64]string{
		0:       "-",
		5:       "5.0/s",
		1500:    "1.5k/s",
		2500000: "2.5M/s",
	}
	for v, want := range cases {
		if got := humanRate(v); got != want {
			t.Errorf("humanRate(%v) = %q want %q", v, got, want)
		}
	}
}

func TestMemoryBudgetAdaptsBatch(t *testing.T) {
	in := benchgen.SmallSuite()[0]
	opts := fastOpts()
	opts.MemoryBudget = 1 << 20 // 1 MiB: small batch
	s, err := NewCoreSession(in.Formula, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := s.SampleUntil(5, 2*time.Second)
	if st.Unique == 0 {
		t.Error("budgeted sampler found nothing")
	}
}

func TestCoreSessionErrorPath(t *testing.T) {
	empty := cnf.New(0)
	if _, err := NewCoreSession(empty, fastOpts()); err == nil {
		t.Error("expected error for empty formula")
	}
}
