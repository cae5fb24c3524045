package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/server/client"
)

// peerHealth is the last probed state of one peer. The zero value means
// "never probed successfully" — unreachable and unknown peers collapse to
// the same bucket, which Handoff still tries last rather than never (a
// drain racing the first probe round must not strand streams locally).
type peerHealth struct {
	ok        bool
	adopt     bool
	freeSlots int
}

// peerSet is the replica registry behind live handoff. Peers are probed on
// an interval via GET /healthz, whose response carries capacity hints
// (free_slots, adopt); Handoff offers a checkpoint envelope to peers in
// preference order — healthy adopters with free worker slots first, then
// any healthy adopter, then unprobed/unreachable peers — and the first 200
// from /v1/adopt wins.
type peerSet struct {
	bases  []string
	client *http.Client
	log    *slog.Logger

	mu     sync.Mutex
	health map[string]peerHealth

	stop     chan struct{}
	stopOnce sync.Once
}

func newPeerSet(bases []string, interval time.Duration, log *slog.Logger) *peerSet {
	ps := &peerSet{
		bases:  client.Bases(bases...),
		client: &http.Client{Timeout: 5 * time.Second},
		log:    log,
		health: map[string]peerHealth{},
		stop:   make(chan struct{}),
	}
	go ps.probeLoop(interval)
	return ps
}

func (ps *peerSet) probeLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	ps.probeAll()
	for {
		select {
		case <-ps.stop:
			return
		case <-t.C:
			ps.probeAll()
		}
	}
}

func (ps *peerSet) probeAll() {
	for _, base := range ps.bases {
		h := ps.probe(base)
		ps.mu.Lock()
		prev := ps.health[base]
		ps.health[base] = h
		ps.mu.Unlock()
		if prev.ok != h.ok {
			ps.log.Info("peer health changed", "peer", base, "healthy", h.ok)
		}
	}
}

func (ps *peerSet) probe(base string) peerHealth {
	resp, err := ps.client.Get(base + "/healthz")
	if err != nil {
		return peerHealth{}
	}
	defer resp.Body.Close()
	var body struct {
		Status    string `json:"status"`
		FreeSlots int    `json:"free_slots"`
		Adopt     bool   `json:"adopt"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil {
		return peerHealth{}
	}
	return peerHealth{ok: body.Status == "ok", adopt: body.Adopt, freeSlots: body.FreeSlots}
}

// Handoff offers env to peers in preference order and returns the adopting
// peer's token and base URL. ok is false when no peer accepted — the
// caller falls back to its local spool.
func (ps *peerSet) Handoff(env []byte) (token, addr string, ok bool) {
	ps.mu.Lock()
	order := make([]string, 0, len(ps.bases))
	var adopters, unknown []string
	for _, b := range ps.bases {
		switch h := ps.health[b]; {
		case h.ok && h.adopt && h.freeSlots > 0:
			order = append(order, b)
		case h.ok && h.adopt:
			adopters = append(adopters, b)
		case !h.ok:
			unknown = append(unknown, b)
		}
	}
	ps.mu.Unlock()
	order = append(order, adopters...)
	order = append(order, unknown...)
	for _, base := range order {
		tok, err := ps.offer(base, env)
		if err != nil {
			ps.log.Warn("peer did not adopt", "peer", base, "err", err)
			continue
		}
		return tok, base, true
	}
	return "", "", false
}

func (ps *peerSet) offer(base string, env []byte) (string, error) {
	resp, err := ps.client.Post(base+"/v1/adopt", "application/octet-stream", bytes.NewReader(env))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("adopt: %s", resp.Status)
	}
	var body struct {
		Token string `json:"token"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Token == "" {
		return "", fmt.Errorf("adopt: malformed response")
	}
	return body.Token, nil
}

// Close stops the probe loop. Idempotent.
func (ps *peerSet) Close() {
	ps.stopOnce.Do(func() { close(ps.stop) })
}
