package faultinject

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

func TestParsePlanRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Plan
	}{
		{"", Plan{}},
		{" ; ; ", Plan{}},
		{"seed=7;kill@tick=120;cancel@sol=40;corrupt;slow=2ms",
			Plan{Seed: 7, KillAtTick: 120, CancelAtSol: 40, Corrupt: true, Slow: 2 * time.Millisecond}},
		{"kill@tick=1", Plan{KillAtTick: 1}},
		{"corrupt", Plan{Seed: 1, Corrupt: true}}, // corruption defaults its seed
		{"slow=1s;seed=-3", Plan{Seed: -3, Slow: time.Second}},
		{"killpeer@sol=12;rejectadopt=3", Plan{KillPeerAtSol: 12, RejectAdopts: 3}},
		{"seed=5;kill@tick=9;cancel@sol=4;killpeer@sol=2;rejectadopt=1;corrupt;slow=3ms",
			Plan{Seed: 5, KillAtTick: 9, CancelAtSol: 4, KillPeerAtSol: 2, RejectAdopts: 1,
				Corrupt: true, Slow: 3 * time.Millisecond}},
	}
	for _, c := range cases {
		got, err := ParsePlan(c.in)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParsePlan(%q) = %+v, want %+v", c.in, got, c.want)
		}
		back, err := ParsePlan(got.String())
		if err != nil || back != got {
			t.Fatalf("round trip of %q via %q: %+v, %v", c.in, got.String(), back, err)
		}
	}
}

func TestParsePlanRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"kill@tick", "kill@tick=0", "kill@tick=-5", "kill@tick=x",
		"cancel@sol=", "seed=1.5", "slow=fast", "slow=-1s",
		"corrupt=yes", "explode@tick=3", "seed",
		"killpeer@sol", "killpeer@sol=0", "killpeer@sol=-2",
		"rejectadopt", "rejectadopt=0", "rejectadopt=x",
	} {
		if _, err := ParsePlan(in); err == nil {
			t.Fatalf("ParsePlan(%q) accepted garbage", in)
		}
	}
}

func TestInjectorFiresExactlyOnce(t *testing.T) {
	plan, err := ParsePlan("kill@tick=3;cancel@sol=2")
	if err != nil {
		t.Fatal(err)
	}
	in := New(plan)
	var kills, cancels int
	for i := 0; i < 10; i++ {
		if in.Advance(PointTick) {
			kills++
			if in.Ticks() != 3 {
				t.Fatalf("kill fired at tick %d, want 3", in.Ticks())
			}
		}
		if in.Advance(PointSol) {
			cancels++
			if in.Solutions() != 2 {
				t.Fatalf("cancel fired at solution %d, want 2", in.Solutions())
			}
		}
	}
	if kills != 1 || cancels != 1 {
		t.Fatalf("fired kill %d times, cancel %d times; want exactly once each", kills, cancels)
	}
	if in.Ticks() != 10 || in.Solutions() != 10 {
		t.Fatalf("counters = %d/%d, want 10/10", in.Ticks(), in.Solutions())
	}
}

func TestInjectorConcurrentAdvance(t *testing.T) {
	in := New(Plan{KillAtTick: 50})
	var fired sync.Map
	var wg sync.WaitGroup
	var count int64
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if in.Advance(PointTick) {
					mu.Lock()
					count++
					mu.Unlock()
					fired.Store("fired", true)
				}
			}
		}()
	}
	wg.Wait()
	if count != 1 {
		t.Fatalf("kill fired %d times under contention, want 1", count)
	}
	if in.Ticks() != 200 {
		t.Fatalf("ticks = %d, want 200", in.Ticks())
	}
}

func TestCorruptDeterministicAndDamaging(t *testing.T) {
	data := bytes.Repeat([]byte{0xAA}, 64)
	a := Corrupt(7, data)
	b := Corrupt(7, data)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different damage")
	}
	if bytes.Equal(a, data) {
		t.Fatal("corruption changed nothing")
	}
	if !bytes.Equal(data, bytes.Repeat([]byte{0xAA}, 64)) {
		t.Fatal("input was mutated")
	}
	if bytes.Equal(Corrupt(8, data), a) {
		t.Fatal("different seeds produced identical damage")
	}
	// Unarmed injector passes data through untouched (same backing).
	in := New(Plan{})
	if got := in.Corrupt(data); &got[0] != &data[0] {
		t.Fatal("unarmed Corrupt copied its input")
	}
	armed := New(Plan{Corrupt: true, Seed: 3})
	if got := armed.Corrupt(data); bytes.Equal(got, data) {
		t.Fatal("armed Corrupt changed nothing")
	}
}

func TestInjectorSlowSink(t *testing.T) {
	in := New(Plan{Slow: 5 * time.Millisecond})
	start := time.Now()
	for i := 0; i < 3; i++ {
		in.Advance(PointSol)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("3 slow deliveries took %v, want >= 15ms", elapsed)
	}
}

// TestAdvanceSolFiresEachArmOnce: cancel@sol and killpeer@sol ride the
// same delivery counter but fire independently, each exactly once, at
// their own solution index.
func TestAdvanceSolFiresEachArmOnce(t *testing.T) {
	plan := Plan{CancelAtSol: 3, KillPeerAtSol: 5}
	if !plan.Armed() {
		t.Fatal("plan with sol arms reports unarmed")
	}
	in := New(plan)
	var cancels, deaths []int
	for i := 1; i <= 10; i++ {
		cancel, death := in.AdvanceSol()
		if cancel {
			cancels = append(cancels, i)
		}
		if death {
			deaths = append(deaths, i)
		}
	}
	if len(cancels) != 1 || cancels[0] != 3 {
		t.Fatalf("cancel fired at %v, want exactly [3]", cancels)
	}
	if len(deaths) != 1 || deaths[0] != 5 {
		t.Fatalf("peer death fired at %v, want exactly [5]", deaths)
	}
	// Advance(PointSol) is the same counter: no refires on the old surface.
	for i := 0; i < 5; i++ {
		if in.Advance(PointSol) {
			t.Fatal("spent sol arm refired through Advance")
		}
	}
}

// TestRejectAdoptBudget: the first N adoption offers are refused, then
// the server adopts normally; nil injectors always admit.
func TestRejectAdoptBudget(t *testing.T) {
	in := New(Plan{RejectAdopts: 2})
	got := []bool{in.RejectAdopt(), in.RejectAdopt(), in.RejectAdopt(), in.RejectAdopt()}
	want := []bool{true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RejectAdopt sequence %v, want %v", got, want)
		}
	}
}

// TestNilInjectorSafeEverywhere: every query surface is nil-safe — the
// production path never branches on "is fault injection configured".
func TestNilInjectorSafeEverywhere(t *testing.T) {
	var in *Injector
	if cancel, death := in.AdvanceSol(); cancel || death {
		t.Fatal("nil injector fired a sol arm")
	}
	if in.RejectAdopt() {
		t.Fatal("nil injector rejected an adoption")
	}
	if in.Advance(PointTick) || in.Advance(PointSol) {
		t.Fatal("nil injector fired an advance")
	}
}

// Armed reports whether the plan injects anything at all.
func (p Plan) Armed() bool {
	return p.KillAtTick > 0 || p.CancelAtSol > 0 || p.KillPeerAtSol > 0 ||
		p.RejectAdopts > 0 || p.Corrupt || p.Slow > 0
}
