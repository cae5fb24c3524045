package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
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
