package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/sampling"
	"repro/internal/store"
)

// rateWindow is the sliding window (seconds) behind the sol/s gauge.
const rateWindow = 10

// metrics aggregates the service counters exported on /metrics. All
// methods are safe for concurrent use; Write renders a consistent snapshot
// in the Prometheus text exposition format.
type metrics struct {
	start time.Time

	mu            sync.Mutex
	requests      map[string]int64 // completed requests by outcome
	solutions     int64            // solutions streamed to clients, total
	projRequests  int64            // completed requests that sampled a projection
	projSolutions int64            // projected-distinct solutions streamed, total
	checkpoints   int64            // drained streams parked in the spool
	resumes       int64            // streams re-attached from a resume token
	handoffSent   int64            // envelopes successfully pushed to a peer
	handoffAdopt  int64            // envelopes accepted on /v1/adopt
	handoffReject int64            // /v1/adopt requests this server refused
	preemptions   int64            // sessions checkpointed off their worker slot
	bucket        [rateWindow]int64
	stamp         [rateWindow]int64 // unix second each bucket last belonged to
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), requests: map[string]int64{}}
}

// Request outcomes. "ok" includes partial results delivered under
// cancellation or drain — the client got a well-formed stream.
const (
	outcomeOK         = "ok"
	outcomeBadRequest = "bad_request"
	outcomeTooLarge   = "too_large"
	outcomeNotFound   = "not_found"
	outcomeShedQueue  = "shed_queue"
	outcomeShedTenant = "shed_tenant"
	outcomeShedMemory = "shed_memory"
	outcomeDraining   = "draining"
	outcomeCancelled  = "cancelled" // client gone before a stream started
	outcomeStreamErr  = "stream_error"
	// unsat_assume: the bounded SAT precheck proved the formula has no
	// models under the request's ?assume= pins — a clean 409, not a
	// stream that trickles out empty.
	outcomeUnsatAssume = "unsat_assume"
)

// inc counts one event on c, a counter field of m.
func (m *metrics) inc(c *int64) {
	m.mu.Lock()
	*c++
	m.mu.Unlock()
}

func (m *metrics) request(outcome string) {
	m.mu.Lock()
	m.requests[outcome]++
	m.mu.Unlock()
}

// addSolutions records n freshly streamed solutions at time now; projected
// marks them as projected-distinct deliveries.
func (m *metrics) addSolutions(n int, projected bool, now time.Time) {
	sec := now.Unix()
	i := int(sec % rateWindow)
	m.mu.Lock()
	m.solutions += int64(n)
	if projected {
		m.projSolutions += int64(n)
	}
	if m.stamp[i] != sec {
		m.stamp[i], m.bucket[i] = sec, 0
	}
	m.bucket[i] += int64(n)
	m.mu.Unlock()
}

// solRate returns the aggregate solutions/s over the trailing window.
func (m *metrics) solRate(now time.Time) float64 {
	sec := now.Unix()
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum int64
	for i := 0; i < rateWindow; i++ {
		if sec-m.stamp[i] < rateWindow {
			sum += m.bucket[i]
		}
	}
	return float64(sum) / rateWindow
}

// shedTotal is the number of requests rejected by admission control.
// Caller holds m.mu.
func (m *metrics) shedTotalLocked() int64 {
	return m.requests[outcomeShedQueue] + m.requests[outcomeShedTenant] + m.requests[outcomeShedMemory]
}

// Write renders the metrics in Prometheus text format. The gauges owned by
// other components (queue, compiler, memory ledger, stores) are passed in
// so one call renders a single consistent page.
func (m *metrics) Write(w io.Writer, queueDepth, active int, reserved, budget int64,
	cs sampling.CompilerStats, ss store.Stats, draining bool, spool store.Stats) {
	now := time.Now()
	// series writes one metric: its TYPE line, then its value.
	series := func(name, typ string, v any) {
		fmt.Fprintf(w, "# TYPE %s %s\n%s %v\n", name, typ, name, v)
	}
	series("satserved_uptime_seconds", "counter", fmt.Sprintf("%.3f", now.Sub(m.start).Seconds()))
	series("satserved_queue_depth", "gauge", queueDepth)
	series("satserved_active_sessions", "gauge", active)
	series("satserved_mem_reserved_bytes", "gauge", reserved)
	series("satserved_mem_budget_bytes", "gauge", budget)
	d := 0
	if draining {
		d = 1
	}
	series("satserved_draining", "gauge", d)

	m.mu.Lock()
	solutions := m.solutions
	projRequests, projSolutions := m.projRequests, m.projSolutions
	checkpoints, resumes := m.checkpoints, m.resumes
	hSent, hAdopt, hReject := m.handoffSent, m.handoffAdopt, m.handoffReject
	preemptions := m.preemptions
	shed := m.shedTotalLocked()
	outcomes := make([]string, 0, len(m.requests))
	for k := range m.requests {
		outcomes = append(outcomes, k)
	}
	sort.Strings(outcomes)
	counts := make([]int64, len(outcomes))
	for i, k := range outcomes {
		counts[i] = m.requests[k]
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# TYPE satserved_requests_total counter\n")
	for i, k := range outcomes {
		fmt.Fprintf(w, "satserved_requests_total{outcome=%q} %d\n", k, counts[i])
	}
	series("satserved_shed_total", "counter", shed)
	series("satserved_solutions_total", "counter", solutions)
	series("satserved_projected_requests_total", "counter", projRequests)
	series("satserved_projected_solutions_total", "counter", projSolutions)
	series("satserved_sol_per_sec", "gauge", fmt.Sprintf("%.3f", m.solRate(now)))
	series("satserved_checkpoints_total", "counter", checkpoints)
	series("satserved_resumes_total", "counter", resumes)
	series("satserved_spool_entries", "gauge", spool.Entries)
	series("satserved_spool_bytes", "gauge", spool.Bytes)
	series("satserved_spool_evictions_total", "counter", spool.Evictions)
	series("satserved_spool_corrupt_total", "counter", spool.Quarantined)
	series("satserved_handoff_sent_total", "counter", hSent)
	series("satserved_handoff_adopted_total", "counter", hAdopt)
	series("satserved_handoff_rejected_total", "counter", hReject)
	series("satserved_preemptions_total", "counter", preemptions)

	series("satserved_compiler_hits_total", "counter", cs.Hits)
	series("satserved_compiler_misses_total", "counter", cs.Misses)
	series("satserved_compiler_evictions_total", "counter", cs.Evictions)
	series("satserved_compiler_entries", "gauge", cs.Entries)
	series("satserved_compiler_resident_bytes", "gauge", cs.ResidentBytes)

	// The durable compile tier. Hits/misses/bytes are the compiler's disk
	// consultations; entries/bytes/evictions/quarantined are the store's
	// own view of the shared directory. All zero when no -store is mounted.
	series("satserved_store_hits_total", "counter", cs.DiskHits)
	series("satserved_store_misses_total", "counter", cs.DiskMisses)
	series("satserved_store_loaded_bytes_total", "counter", cs.DiskBytes)
	series("satserved_store_entries", "gauge", ss.Entries)
	series("satserved_store_bytes", "gauge", ss.Bytes)
	series("satserved_store_evictions_total", "counter", ss.Evictions)
	series("satserved_store_quarantined_total", "counter", ss.Quarantined)
}
