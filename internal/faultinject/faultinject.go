// Package faultinject is the deterministic fault tier behind the zero-loss
// tests: a tiny plan language describing when a run should be interrupted,
// what should be damaged, and how the world should be slowed down, plus
// the counters that fire those faults at exact, reproducible points.
//
// Plans are strings so they travel through flags and environment variables
// into child processes unchanged:
//
//	seed=7;kill@tick=120;cancel@sol=40;corrupt;slow=2ms
//
// Every fault is deterministic: the same plan against the same
// deterministic workload interrupts at the same tick, damages the same
// bytes, and sleeps the same amount — a chaos test that fails is therefore
// a chaos test that replays.
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/tensor"
)

// Point names one instrumented location a workload reports progress from.
type Point string

const (
	// PointTick fires once per scheduler tick (or GD round).
	PointTick Point = "tick"
	// PointSol fires once per delivered solution.
	PointSol Point = "sol"
)

// Plan is one parsed fault schedule. The zero value injects nothing.
type Plan struct {
	// Seed keys the deterministic corruption stream (and is available to
	// harnesses that need per-plan randomness). Defaults to 1 when a plan
	// arms corruption without naming a seed.
	Seed int64
	// KillAtTick > 0 arms a hard interruption (the harness typically sends
	// SIGTERM or exits) when the workload reports its Nth tick.
	KillAtTick int64
	// CancelAtSol > 0 arms a soft interruption (context cancel / clean
	// Stop) when the Nth solution is delivered.
	CancelAtSol int64
	// KillPeerAtSol > 0 arms a peer death: when the Nth solution is
	// delivered, the harness hard-kills (SIGKILL) the replica it is
	// streaming from — the fleet-failover arm. A satserved armed with it
	// kills itself once it has written its Nth solution, so the stream
	// cannot finish before the death lands.
	KillPeerAtSol int64
	// RejectAdopts > 0 makes a server refuse its first N /v1/adopt
	// requests — the adoption-rejection arm, proving senders fall back to
	// the next peer or their local spool.
	RejectAdopts int64
	// Corrupt arms deterministic damage to resume tokens in transit.
	Corrupt bool
	// Slow inserts this delay at every delivered solution — the slow-sink
	// consumer that backs streams up against flow control.
	Slow time.Duration
}

// ParsePlan parses the semicolon-separated plan language. Empty input (and
// lone separators) yield the inert zero Plan. Unknown directives are
// errors — a typo in a chaos test must fail loudly, not inject nothing.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	seenSeed := false
	for _, field := range strings.Split(s, ";") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, hasVal := strings.Cut(field, "=")
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || !hasVal {
				return Plan{}, fmt.Errorf("faultinject: bad seed %q", field)
			}
			p.Seed = n
			seenSeed = true
		case "kill@tick":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || !hasVal || n <= 0 {
				return Plan{}, fmt.Errorf("faultinject: bad kill point %q (want kill@tick=N, N > 0)", field)
			}
			p.KillAtTick = n
		case "cancel@sol":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || !hasVal || n <= 0 {
				return Plan{}, fmt.Errorf("faultinject: bad cancel point %q (want cancel@sol=N, N > 0)", field)
			}
			p.CancelAtSol = n
		case "killpeer@sol":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || !hasVal || n <= 0 {
				return Plan{}, fmt.Errorf("faultinject: bad peer-kill point %q (want killpeer@sol=N, N > 0)", field)
			}
			p.KillPeerAtSol = n
		case "rejectadopt":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || !hasVal || n <= 0 {
				return Plan{}, fmt.Errorf("faultinject: bad adoption rejection %q (want rejectadopt=N, N > 0)", field)
			}
			p.RejectAdopts = n
		case "corrupt":
			if hasVal {
				return Plan{}, fmt.Errorf("faultinject: corrupt takes no value (got %q)", field)
			}
			p.Corrupt = true
		case "slow":
			d, err := time.ParseDuration(val)
			if err != nil || !hasVal || d < 0 {
				return Plan{}, fmt.Errorf("faultinject: bad slow duration %q", field)
			}
			p.Slow = d
		default:
			return Plan{}, fmt.Errorf("faultinject: unknown directive %q", field)
		}
	}
	if p.Corrupt && !seenSeed {
		p.Seed = 1
	}
	return p, nil
}

// String renders the plan back into the plan language (canonical order;
// ParsePlan(p.String()) reproduces p for any valid plan).
func (p Plan) String() string {
	var parts []string
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	if p.KillAtTick > 0 {
		parts = append(parts, fmt.Sprintf("kill@tick=%d", p.KillAtTick))
	}
	if p.CancelAtSol > 0 {
		parts = append(parts, fmt.Sprintf("cancel@sol=%d", p.CancelAtSol))
	}
	if p.KillPeerAtSol > 0 {
		parts = append(parts, fmt.Sprintf("killpeer@sol=%d", p.KillPeerAtSol))
	}
	if p.RejectAdopts > 0 {
		parts = append(parts, fmt.Sprintf("rejectadopt=%d", p.RejectAdopts))
	}
	if p.Corrupt {
		parts = append(parts, "corrupt")
	}
	if p.Slow > 0 {
		parts = append(parts, "slow="+p.Slow.String())
	}
	return strings.Join(parts, ";")
}

// Injector counts a workload's progress events and fires the plan's faults
// at their exact points. All methods are safe for concurrent use; each
// fault fires exactly once.
type Injector struct {
	plan   Plan
	ticks  atomic.Int64
	sols   atomic.Int64
	adopts atomic.Int64
	fired  [3]atomic.Bool // kill, cancel, peer death
}

// New returns an injector for the plan.
func New(plan Plan) *Injector { return &Injector{plan: plan} }

// Plan returns the schedule this injector fires.
func (in *Injector) Plan() Plan { return in.plan }

// Advance reports one progress event at the named point and returns true
// exactly once: when that event is the plan's interruption point (the
// KillAtTick'th tick, or the CancelAtSol'th solution). Slow-sink delay is
// applied here for solution events, so a single Advance call per delivery
// gives a harness the whole fault tier.
func (in *Injector) Advance(pt Point) bool {
	if in == nil {
		return false
	}
	switch pt {
	case PointTick:
		n := in.ticks.Add(1)
		return in.plan.KillAtTick > 0 && n == in.plan.KillAtTick && in.fired[0].CompareAndSwap(false, true)
	case PointSol:
		cancel, _ := in.AdvanceSol()
		return cancel
	}
	return false
}

// AdvanceSol reports one delivered solution and returns which solution
// faults fire at it: cancel (the plan's soft interruption) and peerDeath
// (the plan's hard peer kill). Each fires exactly once; slow-sink delay is
// applied here, exactly as in Advance(PointSol).
func (in *Injector) AdvanceSol() (cancel, peerDeath bool) {
	if in == nil {
		return false, false
	}
	if in.plan.Slow > 0 {
		time.Sleep(in.plan.Slow)
	}
	n := in.sols.Add(1)
	cancel = in.plan.CancelAtSol > 0 && n == in.plan.CancelAtSol && in.fired[1].CompareAndSwap(false, true)
	peerDeath = in.plan.KillPeerAtSol > 0 && n == in.plan.KillPeerAtSol && in.fired[2].CompareAndSwap(false, true)
	return cancel, peerDeath
}

// RejectAdopt reports whether the next /v1/adopt request should be
// refused: true for the plan's first RejectAdopts calls. Nil-safe (a nil
// injector never rejects), so servers call it unconditionally.
func (in *Injector) RejectAdopt() bool {
	if in == nil || in.plan.RejectAdopts <= 0 {
		return false
	}
	return in.adopts.Add(1) <= in.plan.RejectAdopts
}

// Ticks returns how many tick events have been reported.
func (in *Injector) Ticks() int64 { return in.ticks.Load() }

// Solutions returns how many solution events have been reported.
func (in *Injector) Solutions() int64 { return in.sols.Load() }

// Corrupt returns a damaged copy of data when the plan arms corruption
// (the input is never modified): between one and four byte flips at
// positions drawn from a SplitMix64 stream keyed by the plan seed, so the
// same plan damages the same token identically on every run. With
// corruption unarmed (or empty input) the input is returned as is.
func (in *Injector) Corrupt(data []byte) []byte {
	if !in.plan.Corrupt || len(data) == 0 {
		return data
	}
	return Corrupt(in.plan.Seed, data)
}

// Corrupt deterministically damages a copy of data: 1 + seedstream%4 byte
// flips, each flipping at least one bit. Used to prove that a damaged
// resume token is rejected cleanly rather than resuming a wrong stream.
func Corrupt(seed int64, data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	out := append([]byte(nil), data...)
	x := uint64(seed)
	r := func() uint64 { x = tensor.SplitMix64(x + 0x9E3779B97F4A7C15); return x }
	flips := int(r()%4) + 1
	for i := 0; i < flips; i++ {
		pos := int(r() % uint64(len(out)))
		mask := byte(r())
		if mask == 0 {
			mask = 0x80
		}
		out[pos] ^= mask
	}
	return out
}
