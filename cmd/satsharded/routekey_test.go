package main

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/tensor"
)

const routeDIMACS = "p cnf 6 2\n1 2 3 0\n4 5 6 0\n"

func routeFor(t *testing.T, url, body string) string {
	t.Helper()
	p := newProxy([]string{"http://a", "http://b"}, 1<<20, slog.New(slog.NewTextHandler(io.Discard, nil)))
	defer p.Close()
	r := httptest.NewRequest("POST", url, strings.NewReader(body))
	return p.routeKey(r, []byte(body))
}

// replicaKey sends the request to a live replica and returns the problem
// key it answers with (X-Problem-Key; empty on an error reply).
func replicaKey(t *testing.T, base, url, body string) string {
	t.Helper()
	sep := "?"
	if strings.Contains(url, "?") {
		sep = "&"
	}
	resp, err := http.Post(base+url+sep+"target=1", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.Header.Get("X-Problem-Key")
}

// TestRouteKeyAssume: the proxy derives the same key the replica's
// compiler will, for both addressing forms, so a pinned or projected
// request lands on the replica that owns its artifact. Each case is
// checked against a hand-computed key and against the X-Problem-Key a
// live replica answers the same request with.
func TestRouteKeyAssume(t *testing.T) {
	f, err := cnf.ParseDIMACSString(routeDIMACS)
	if err != nil {
		t.Fatal(err)
	}
	base := sampling.HashFormula(f)
	spec := cnf.AssumeKey(base, cnf.CanonicalAssume([]cnf.Lit{-1, 4}))
	f.Projection = []int{1, 4}
	projected := sampling.HashFormula(f)

	srv := server.New(server.Config{Device: tensor.ParallelN(1), Workers: 1,
		Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	replica := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer replica.Close()
	// Warm the base artifact so the keyed cases resolve on the replica.
	if got := replicaKey(t, replica.URL, "/v1/sample", routeDIMACS); got != base {
		t.Fatalf("warm-up key = %.16q, want %.16q", got, base)
	}

	cases := []struct {
		name, url, body, want string
	}{
		{"body-plain", "/v1/sample", routeDIMACS, base},
		{"body-project", "/v1/sample?project=1,4", routeDIMACS, projected},
		{"body-project-json", "/v1/sample?project=[1,4]", routeDIMACS, projected},
		{"body-assume", "/v1/sample?assume=4,-1", routeDIMACS, spec},
		{"body-assume-json", "/v1/sample?assume=[-1,4]", routeDIMACS, spec},
		{"key-plain", "/v1/sample?key=" + base, "", base},
		// A key names a projection-independent artifact: ?project= rides
		// on the session, not the key.
		{"key-project", "/v1/sample?key=" + base + "&project=2", "", base},
		{"key-assume", "/v1/sample?key=" + base + "&assume=-1,4", "", spec},
		// Unparseable pins route keyless; the replica owns the 400.
		{"bad-assume", "/v1/sample?key=" + base + "&assume=1,,x", "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := routeFor(t, tc.url, tc.body)
			if got != tc.want {
				t.Fatalf("routeKey = %.16q, want %.16q", got, tc.want)
			}
			if rk := replicaKey(t, replica.URL, tc.url, tc.body); rk != got {
				t.Fatalf("replica X-Problem-Key = %.16q, routeKey = %.16q", rk, got)
			}
		})
	}
}
