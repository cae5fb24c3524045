package client

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"sync"
	"time"
)

// Health is the body of a satserved GET /healthz: liveness plus the
// capacity hints a fleet routes and hands off by. The zero value reads as
// unhealthy, which is what a replica that was never probed, or failed its
// last probe, reports. Fields are in alphabetical order, the order the
// body has always had on the wire.
type Health struct {
	Active       int    `json:"active"`
	Adopt        bool   `json:"adopt"` // accepts /v1/adopt handoffs
	FreeSlots    int    `json:"free_slots"`
	MemFreeBytes int64  `json:"mem_free_bytes"`
	QueueFree    int    `json:"queue_free"`
	Queued       int    `json:"queued"`
	Status       string `json:"status"` // "ok" or "draining"
	Uptime       string `json:"uptime"`
	Version      string `json:"version"`
}

// OK reports whether the replica answered its probe as serving.
func (h Health) OK() bool { return h.Status == "ok" }

// Prober keeps the last /healthz reading of each of a fixed set of base
// URLs. Start refreshes them on an interval; callers read them with Health
// and order replicas by their own policy.
type Prober struct {
	bases []string
	http  *http.Client
	log   *slog.Logger

	mu     sync.Mutex
	health map[string]Health

	ctx    context.Context // cancelled by Close: ends the loop and any probe in flight
	cancel context.CancelFunc
	done   chan struct{} // closed when the loop exits; nil until Start
}

// NewProber returns a prober over bases that probes through hc. Nothing
// is probed until Start.
func NewProber(bases []string, hc *http.Client, log *slog.Logger) *Prober {
	ctx, cancel := context.WithCancel(context.Background())
	return &Prober{bases: bases, http: hc, log: log, health: map[string]Health{}, ctx: ctx, cancel: cancel}
}

// Start probes every base now and then once per interval, on its own
// goroutine, until Close.
func (p *Prober) Start(interval time.Duration) {
	p.done = make(chan struct{})
	go func() {
		defer close(p.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			for _, base := range p.bases {
				h := p.probe(base)
				p.mu.Lock()
				prev := p.health[base]
				p.health[base] = h
				p.mu.Unlock()
				if prev.OK() != h.OK() {
					p.log.Info("health changed", "base", base, "healthy", h.OK())
				}
			}
			select {
			case <-p.ctx.Done():
				return
			case <-t.C:
			}
		}
	}()
}

func (p *Prober) probe(base string) Health {
	ctx, cancel := context.WithTimeout(p.ctx, 3*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return Health{}
	}
	resp, err := p.http.Do(req)
	if err != nil {
		return Health{}
	}
	defer resp.Body.Close()
	var h Health
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil {
		return Health{}
	}
	return h
}

// Health returns base's last probed state.
func (p *Prober) Health(base string) Health {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.health[base]
}

// MarkDown records a failure a caller saw in its request path, so routing
// skips base before the next probe confirms.
func (p *Prober) MarkDown(base string) {
	p.mu.Lock()
	delete(p.health, base)
	p.mu.Unlock()
}

// Close stops the probe loop and waits for it to exit. Idempotent.
func (p *Prober) Close() {
	p.cancel()
	if p.done != nil {
		<-p.done
	}
}
