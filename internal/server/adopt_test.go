package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/sampling"
	"repro/internal/tensor"
)

// TestAdoptWarmsSpecializedKey: a peer adopting the envelope of a session
// over a specialized artifact resolves it exactly as the client's resume
// will — the envelope's specialized key is resident afterwards (not just
// the base key), and the resume that follows compiles nothing.
func TestAdoptWarmsSpecializedKey(t *testing.T) {
	f, err := cnf.ParseDIMACSString(assumeDIMACS)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := sampling.NewCompiler(0).CompileAssume(f, []cnf.Lit{-1, 4})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := prob.NewSession(sampling.SessionConfig{Seed: 7, BatchSize: 256, Device: tensor.ParallelN(2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Stream(context.Background(), 3, nil); err != nil {
		t.Fatal(err)
	}
	env, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := sampling.DecodeCheckpoint(env)
	if err != nil {
		t.Fatal(err)
	}

	s, ts := testServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/adopt", "application/octet-stream", bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	var adopted struct {
		Token string `json:"token"`
	}
	err = json.NewDecoder(resp.Body).Decode(&adopted)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil || adopted.Token == "" {
		t.Fatalf("adopt: status %d, token %q, err %v", resp.StatusCode, adopted.Token, err)
	}
	if _, ok := s.Compiler().Lookup(ck.Key()); !ok {
		t.Fatal("adopt did not warm the envelope's specialized key")
	}

	misses := s.Compiler().Stats().Misses
	resp, err = postSample(t, ts.URL+"/v1/sample?target=5&resume="+adopted.Token, "")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume after adopt: status %d", resp.StatusCode)
	}
	got := readStream(t, resp.Body)
	if !got.meta.Resumed || got.meta.Key != ck.Key() || got.done == nil {
		t.Fatalf("resume after adopt: meta %+v, done %v", got.meta, got.done)
	}
	if m := s.Compiler().Stats().Misses; m != misses {
		t.Fatalf("resume after adopt added %d compiler misses, want 0", m-misses)
	}
}

// TestSpoolDisabledAndBounds: a negative SpoolBudget disables the spool
// outright — it is never passed on as the store's "<= 0 = unbounded" — so
// nothing parks, every token misses, and peers' adoptions are refused. A
// positive budget bounds the spool: an envelope larger than all of it is
// refused, and malformed tokens never touch the filesystem.
func TestSpoolDisabledAndBounds(t *testing.T) {
	env := checkpointEnvelope(t, 8)
	off, ts := testServer(t, Config{SpoolBudget: -1})
	if off.spool != nil || off.spoolTmp != "" {
		t.Fatal("a disabled spool opened a store")
	}
	if _, err := off.spoolPut(env); err == nil {
		t.Fatal("disabled spool parked a checkpoint")
	}
	if _, ok := off.spoolTake(spoolToken(env)); ok {
		t.Fatal("disabled spool returned an entry")
	}
	resp, err := http.Post(ts.URL+"/v1/adopt", "application/octet-stream", bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("adopt on a disabled spool: status %d, want 503", resp.StatusCode)
	}

	small, _ := testServer(t, Config{SpoolBudget: int64(len(env)) - 1})
	if _, err := small.spoolPut(env); err == nil {
		t.Fatal("envelope larger than the whole budget was accepted")
	}
	for _, bad := range []string{"", "short", strings.Repeat("A", 64), strings.Repeat("g", 64), "../../../../etc/passwd"} {
		if _, ok := small.spoolTake(bad); ok {
			t.Fatalf("malformed token %q hit", bad)
		}
	}
}

// TestSpoolPrivateDir: without a SpoolDir — or with one that cannot be
// created — the spool lives in a private directory that Close removes, so
// tokens work for the process's lifetime and die with it. Put/Take
// round-trips the bytes, the token is the content hash, identical content
// parks once, and tokens are one-shot.
func TestSpoolPrivateDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	env := checkpointEnvelope(t, 8)
	for _, dir := range []string{"", filepath.Join(file, "spool")} {
		s := New(Config{SpoolDir: dir, Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
		if s.spoolTmp == "" || s.spool.Dir() != s.spoolTmp {
			t.Fatalf("SpoolDir %q: spool over %q, want a private directory", dir, s.spool.Dir())
		}
		token, err := s.spoolPut(env)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(env); token != hex.EncodeToString(sum[:]) {
			t.Fatalf("token %q is not the content hash", token)
		}
		if again, _ := s.spoolPut(env); again != token {
			t.Fatal("duplicate put returned a different token")
		}
		if st := s.spool.Stats(); st.Entries != 1 || st.Bytes != int64(len(env)) {
			t.Fatalf("entries=%d bytes=%d after a duplicate put, want 1/%d", st.Entries, st.Bytes, len(env))
		}
		if got, ok := s.spoolTake(token); !ok || !bytes.Equal(got, env) {
			t.Fatal("private spool lost a parked checkpoint")
		}
		if _, ok := s.spoolTake(token); ok {
			t.Fatal("token is not one-shot")
		}
		if _, err := s.spoolPut(env); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if _, err := os.Stat(s.spoolTmp); !os.IsNotExist(err) {
			t.Fatalf("Close left the private spool behind: %v", err)
		}
	}
}

// TestAdoptRefusesOverBudgetEnvelope: /v1/adopt prices the envelope with
// the core memory model and refuses one this server's whole budget could
// never hold — 429 shed_memory and nothing spooled — while a budget of
// exactly that price adopts it.
func TestAdoptRefusesOverBudgetEnvelope(t *testing.T) {
	env := checkpointEnvelope(t, 64)
	ck, err := sampling.DecodeCheckpoint(env)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := sampling.CompileProblem(manyVarsFormula(30))
	if err != nil {
		t.Fatal(err)
	}
	price := prob.Core().MemoryEstimate(ck.Snapshot().Shape(2, 0)) // testServer's 2-worker device
	for _, c := range []struct {
		budget  int64
		status  int
		spooled int
	}{
		{price - 1, http.StatusTooManyRequests, 0},
		{price, http.StatusOK, 1},
	} {
		s, ts := testServer(t, Config{MemoryBudget: c.budget})
		resp, err := http.Post(ts.URL+"/v1/adopt", "application/octet-stream", bytes.NewReader(env))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Fatalf("budget %d for a %d-byte envelope: status %d, want %d", c.budget, price, resp.StatusCode, c.status)
		}
		if n := s.spool.Stats().Entries; n != c.spooled {
			t.Fatalf("budget %d: spool holds %d envelopes, want %d", c.budget, n, c.spooled)
		}
		if c.status == http.StatusTooManyRequests {
			if got := scrapeMetric(t, ts.URL, `satserved_requests_total{outcome="shed_memory"}`); got != 1 {
				t.Fatalf("shed_memory outcomes = %v, want 1", got)
			}
		}
	}
}
