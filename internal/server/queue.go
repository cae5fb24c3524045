package server

import (
	"container/heap"
	"context"
	"errors"
	"sync"
	"time"
)

// ErrQueueFull is returned by Acquire when the bounded wait queue is at
// capacity — the load-shedding signal the HTTP layer maps to 429.
var ErrQueueFull = errors.New("server: queue full")

// ErrTenantFull is returned by Acquire when one tenant already holds its
// per-tenant share of the wait queue. Without this cap a single tenant
// flooding the service parks an unbounded number of goroutines (each
// holding a parsed formula and a memory reservation) behind the SFQ — the
// fair queue guarantees grant *order*, not bounded *occupancy*. The HTTP
// layer maps it to the same 429 + Retry-After as a full queue.
var ErrTenantFull = errors.New("server: tenant queue share full")

// ErrDraining is returned by Acquire once StartDrain has run: both to new
// arrivals and to jobs that were already parked in the wait queue when the
// drain began. Before this fail-fast existed, queued requests rode out the
// whole drain grace blocked on a slot grant — holding their memory
// reservations, delaying shutdown, and then streaming into a server about
// to cancel them — instead of getting the clean 503 new arrivals got.
var ErrDraining = errors.New("server: draining")

// queue is the bounded weighted-fair admission scheduler: up to slots jobs
// hold a grant (the worker pool) and at most depth more wait. Waiting jobs
// are granted in start-time-fair-queueing order — each tenant carries a
// virtual finish time advanced by 1/weight per admitted job, and the
// minimum finish tag runs next — so a tenant with weight 2 drains twice as
// fast as a weight-1 tenant under contention, and a flood from one tenant
// cannot starve the rest. Within a tenant, jobs stay FIFO.
//
// The queue also implements the preemption half of fairness: SFQ decides
// who runs next, PreemptOne decides who should stop running. A long
// session holds its slot while the virtual clock advances past its finish
// tag; once waiters have starved beyond a threshold, the active grant with
// the largest virtual-finish overshoot is told to yield (see Grant).
type queue struct {
	mu        sync.Mutex
	slots     int
	depth     int
	perTenant int // max waiters per tenant (<= 0: no per-tenant bound)
	active    int
	draining  bool
	vt        float64 // global virtual clock: start tag of the job last admitted
	seq       uint64  // FIFO tiebreak source
	waiting   waitHeap
	tenants   map[string]*tenantState
	granted   map[*Grant]struct{} // active grants (preemption candidates)
}

// tenantState tracks one tenant's fair-queueing tag. It exists only while
// the tenant has waiting or active jobs (refs > 0), so tenant churn does
// not grow the map without bound; an idle tenant re-enters at the current
// virtual clock, which is exactly SFQ's treatment of idle flows.
type tenantState struct {
	finish  float64 // virtual finish time of the tenant's last admitted job
	refs    int
	waiting int // waiters currently parked (the per-tenant occupancy bound)
}

// waiter is one queued Acquire call.
type waiter struct {
	tenant   string
	start    float64
	finish   float64
	seq      uint64        // FIFO tiebreak on equal finish tags
	enqueued time.Time     // wall-clock park time (starvation detection)
	grant    chan struct{} // closed when the slot is granted (or the drain flushes the waiter)
	index    int           // heap index; -1 removed, -2 granted, -3 flushed by drain
}

// waiter index sentinels (see waiter.index).
const (
	waiterRemoved = -1
	waiterGranted = -2
	waiterDrained = -3
)

type waitHeap []*waiter

func (h waitHeap) Len() int { return len(h) }
func (h waitHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].seq < h[j].seq
}
func (h waitHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *waitHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *waitHeap) Pop() any {
	old := *h
	w := old[len(old)-1]
	old[len(old)-1] = nil
	w.index = waiterRemoved
	*h = old[:len(old)-1]
	return w
}

func newQueue(slots, depth, perTenant int) *queue {
	if slots < 1 {
		slots = 1
	}
	if depth < 0 {
		depth = 0
	}
	return &queue{
		slots:     slots,
		depth:     depth,
		perTenant: perTenant,
		tenants:   map[string]*tenantState{},
		granted:   map[*Grant]struct{}{},
	}
}

// tag computes the SFQ start/finish tags for a new job of the tenant and
// advances the tenant's finish time. Caller holds q.mu.
func (q *queue) tag(tenant string, weight int) (start, finish float64) {
	if weight < 1 {
		weight = 1
	}
	ts := q.tenants[tenant]
	if ts == nil {
		ts = &tenantState{finish: q.vt}
		q.tenants[tenant] = ts
	}
	start = ts.finish
	if start < q.vt {
		start = q.vt
	}
	finish = start + 1/float64(weight)
	ts.finish = finish
	ts.refs++
	return start, finish
}

// unref drops one job reference for the tenant, deleting idle state.
// Caller holds q.mu.
func (q *queue) unref(tenant string) {
	if ts := q.tenants[tenant]; ts != nil {
		if ts.refs--; ts.refs <= 0 {
			delete(q.tenants, tenant)
		}
	}
}

// Grant is one admitted job's hold on a worker slot. Release must be
// called exactly once when the job finishes (extra calls are no-ops).
// Preempt is closed when the queue selects this grant as the preemption
// victim: the holder should stop at its next safe point, Release, and —
// if it wants to keep running — re-Acquire, which files it behind a fresh
// SFQ tag (and so behind every starved waiter that triggered the
// preemption). A holder is free to ignore Preempt; the queue never
// revokes a slot by force.
type Grant struct {
	q         *queue
	tenant    string
	finish    float64 // virtual finish tag at grant time (overshoot baseline)
	grantedAt time.Time
	Preempt   chan struct{}
	preempted bool // selected as a victim already (never selected twice)
	once      sync.Once
}

// Release returns the slot. Idempotent.
func (g *Grant) Release() {
	g.once.Do(func() {
		q := g.q
		q.mu.Lock()
		delete(q.granted, g)
		q.active--
		q.unref(g.tenant)
		q.grantLocked()
		q.mu.Unlock()
	})
}

// newGrantLocked registers an active grant. Caller holds q.mu.
func (q *queue) newGrantLocked(tenant string, finish float64) *Grant {
	g := &Grant{
		q:         q,
		tenant:    tenant,
		finish:    finish,
		grantedAt: time.Now(),
		Preempt:   make(chan struct{}),
	}
	q.granted[g] = struct{}{}
	return g
}

// grantLocked hands free slots to the fairest waiters. Caller holds q.mu.
func (q *queue) grantLocked() {
	for q.active < q.slots && q.waiting.Len() > 0 {
		w := heap.Pop(&q.waiting).(*waiter)
		w.index = waiterGranted
		if ts := q.tenants[w.tenant]; ts != nil {
			ts.waiting--
		}
		q.vt = w.start
		q.active++
		close(w.grant)
	}
}

// StartDrain rejects all future Acquire calls with ErrDraining and flushes
// every waiter already parked in the queue: each wakes immediately with
// ErrDraining instead of blocking until a slot frees or its context dies.
// Jobs already holding a slot are untouched. Idempotent.
func (q *queue) StartDrain() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return
	}
	q.draining = true
	for q.waiting.Len() > 0 {
		w := heap.Pop(&q.waiting).(*waiter)
		w.index = waiterDrained
		if ts := q.tenants[w.tenant]; ts != nil {
			ts.waiting--
		}
		q.unref(w.tenant)
		close(w.grant)
	}
}

// AcquireGrant obtains a worker slot for one job of the given tenant,
// blocking in weighted-fair order while the pool is busy. When depth
// waiters are already queued it fails fast with ErrQueueFull; when the
// tenant alone holds its per-tenant waiter share it fails with
// ErrTenantFull; when ctx ends first it returns the context error with the
// waiter unlinked.
func (q *queue) AcquireGrant(ctx context.Context, tenant string, weight int) (*Grant, error) {
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		return nil, ErrDraining
	}
	if q.active < q.slots && q.waiting.Len() == 0 {
		start, finish := q.tag(tenant, weight)
		q.vt = start
		q.active++
		g := q.newGrantLocked(tenant, finish)
		q.mu.Unlock()
		return g, nil
	}
	if q.waiting.Len() >= q.depth {
		q.mu.Unlock()
		return nil, ErrQueueFull
	}
	if q.perTenant > 0 {
		if ts := q.tenants[tenant]; ts != nil && ts.waiting >= q.perTenant {
			q.mu.Unlock()
			return nil, ErrTenantFull
		}
	}
	q.seq++
	w := &waiter{tenant: tenant, seq: q.seq, enqueued: time.Now(), grant: make(chan struct{})}
	w.start, w.finish = q.tag(tenant, weight)
	q.tenants[tenant].waiting++
	heap.Push(&q.waiting, w)
	q.mu.Unlock()

	select {
	case <-w.grant:
		// The channel closes on a grant or on a drain flush; the index
		// (written before the close) says which happened.
		if w.index == waiterDrained {
			return nil, ErrDraining
		}
		q.mu.Lock()
		g := q.newGrantLocked(tenant, w.finish)
		q.mu.Unlock()
		return g, nil
	case <-ctx.Done():
		q.mu.Lock()
		switch w.index {
		case waiterGranted:
			// Raced with a grant: the slot is ours, give it back.
			g := q.newGrantLocked(tenant, w.finish)
			q.mu.Unlock()
			g.Release()
			return nil, ctx.Err()
		case waiterDrained:
			// Raced with a drain flush: already unlinked, no slot held.
			q.mu.Unlock()
			return nil, ErrDraining
		}
		heap.Remove(&q.waiting, w.index)
		if ts := q.tenants[tenant]; ts != nil {
			ts.waiting--
		}
		q.unref(tenant)
		q.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Acquire is AcquireGrant for callers that only need the release function.
func (q *queue) Acquire(ctx context.Context, tenant string, weight int) (release func(), err error) {
	g, err := q.AcquireGrant(ctx, tenant, weight)
	if err != nil {
		return nil, err
	}
	return g.Release, nil
}

// PreemptOne implements the SFQ preemption policy: when every slot is busy
// and the oldest waiter has starved longer than threshold, the active
// grant with the largest virtual-finish overshoot — the job that, by its
// own finish tag, should have yielded the longest ago in virtual time — is
// signalled to yield (its Preempt channel closes) and true is returned.
// Each grant is selected at most once; grants whose holders never re-file
// are simply never preempted again. With no starvation (or nothing left to
// preempt) it returns false.
func (q *queue) PreemptOne(threshold time.Duration, now time.Time) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining || q.active < q.slots || q.waiting.Len() == 0 {
		return false
	}
	starved := false
	for _, w := range q.waiting {
		if now.Sub(w.enqueued) >= threshold {
			starved = true
			break
		}
	}
	if !starved {
		return false
	}
	// Overshoot = q.vt - finish: how far the virtual clock has run past the
	// grant's own finish tag. The maximum-overshoot victim is the active
	// grant with the minimum finish tag; ties break to the longest-held.
	var victim *Grant
	for g := range q.granted {
		if g.preempted {
			continue
		}
		if victim == nil || g.finish < victim.finish ||
			(g.finish == victim.finish && g.grantedAt.Before(victim.grantedAt)) {
			victim = g
		}
	}
	if victim == nil {
		return false
	}
	victim.preempted = true
	close(victim.Preempt)
	return true
}

// Depth reports the number of waiting jobs.
func (q *queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.waiting.Len()
}

// Active reports the number of granted (running) jobs.
func (q *queue) Active() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.active
}

// OldestWait reports how long the oldest parked waiter has been waiting
// (zero when the queue is empty) — the starvation gauge.
func (q *queue) OldestWait(now time.Time) time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	var oldest time.Duration
	for _, w := range q.waiting {
		if d := now.Sub(w.enqueued); d > oldest {
			oldest = d
		}
	}
	return oldest
}
