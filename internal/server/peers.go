package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/server/client"
)

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
	prober *client.Prober
}

func newPeerSet(bases []string, interval time.Duration, log *slog.Logger) *peerSet {
	ps := &peerSet{
		bases:  client.Bases(bases...),
		client: &http.Client{Timeout: 5 * time.Second},
		log:    log,
	}
	ps.prober = client.NewProber(ps.bases, ps.client, log)
	ps.prober.Start(interval)
	return ps
}

// Handoff offers env to peers in preference order and returns the adopting
// peer's token and base URL. ok is false when no peer accepted — the
// caller falls back to its local spool.
func (ps *peerSet) Handoff(env []byte) (token, addr string, ok bool) {
	// Unreachable and never-probed peers share the zero Health; they are
	// still tried last rather than never (a drain racing the first probe
	// round must not strand streams locally).
	order := make([]string, 0, len(ps.bases))
	var adopters, unknown []string
	for _, b := range ps.bases {
		switch h := ps.prober.Health(b); {
		case h.OK() && h.Adopt && h.FreeSlots > 0:
			order = append(order, b)
		case h.OK() && h.Adopt:
			adopters = append(adopters, b)
		case !h.OK():
			unknown = append(unknown, b)
		}
	}
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
func (ps *peerSet) Close() { ps.prober.Close() }
