package client

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestProberReadsHealth: the prober decodes a replica's /healthz into a
// Health, reads a draining (503) or unreachable replica as not OK, and
// MarkDown drops a reading until the next probe refreshes it.
func TestProberReadsHealth(t *testing.T) {
	var draining atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := Health{Status: "ok", FreeSlots: 3, QueueFree: 7, Adopt: true}
		if draining.Load() {
			h = Health{Status: "draining"}
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(h)
	}))
	defer ts.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// One probe round, then none for an hour: MarkDown's effect is not
	// raced by a refresh.
	once := NewProber([]string{ts.URL, dead.URL}, ts.Client(), log)
	once.Start(time.Hour)
	defer once.Close()
	waitFor("the first probe", func() bool { return once.Health(ts.URL).OK() })
	if h := once.Health(ts.URL); h.FreeSlots != 3 || h.QueueFree != 7 || !h.Adopt {
		t.Fatalf("decoded health %+v", h)
	}
	if once.Health(dead.URL).OK() {
		t.Fatal("unreachable replica reads as healthy")
	}
	once.MarkDown(ts.URL)
	if h := once.Health(ts.URL); h.OK() {
		t.Fatalf("marked-down replica still reads %+v", h)
	}

	fast := NewProber([]string{ts.URL}, ts.Client(), log)
	fast.Start(5 * time.Millisecond)
	defer fast.Close()
	waitFor("a healthy probe", func() bool { return fast.Health(ts.URL).OK() })
	draining.Store(true)
	waitFor("the draining probe", func() bool { return !fast.Health(ts.URL).OK() })
}
