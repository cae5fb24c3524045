package server

import (
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/sampling"
)

// assumeDIMACS: (x1∨x2∨x3)(x4∨x5∨x6) — 49 models. Under x1 pinned FALSE
// the first clause strips to (x2∨x3) — 3 settings — and the second keeps
// its 7: 21 models. Under x1 pinned TRUE the first clause is satisfied and
// x2,x3 occur in no clause of the conditioned CNF: 4×7 = 28 models.
const assumeDIMACS = "p cnf 6 2\n1 2 3 0\n4 5 6 0\n"

func postSample(t *testing.T, url, body string) (*http.Response, error) {
	t.Helper()
	return http.Post(url, "text/plain", strings.NewReader(body))
}

// TestAssumeEndToEnd drives ?assume= through the full service surface:
// the stream is specialized (meta line + X-Problem-Key carry the
// specialized identity), every solution satisfies the pins and the base
// formula, the solution set equals the hand-conditioned CNF's, and the
// specialized key is directly addressable afterwards.
func TestAssumeEndToEnd(t *testing.T) {
	s, ts := testServer(t, Config{})

	exhaust := func(query string, body string) stream {
		t.Helper()
		resp, err := postSample(t, ts.URL+"/v1/sample?"+query, body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("?%s: status %d", query, resp.StatusCode)
		}
		return readStream(t, resp.Body)
	}

	f, err := cnf.ParseDIMACSString(assumeDIMACS)
	if err != nil {
		t.Fatal(err)
	}
	baseKey := sampling.HashFormula(f)
	specKey := cnf.AssumeKey(baseKey, []cnf.Lit{-1})
	for _, leg := range []struct {
		pin  cnf.Lit
		want int
	}{{-1, 21}, {1, 28}} {
		got := exhaust(fmt.Sprintf("target=100&seed=9&timeout=30s&assume=%d", leg.pin), assumeDIMACS)
		if got.done == nil || !got.done.Exhausted {
			t.Fatalf("assume=%d: stream did not exhaust", leg.pin)
		}
		if fmt.Sprint(got.meta.Assumptions) != fmt.Sprintf("[%d]", leg.pin) {
			t.Fatalf("meta assumptions = %v, want [%d]", got.meta.Assumptions, leg.pin)
		}
		if key := cnf.AssumeKey(baseKey, []cnf.Lit{leg.pin}); got.meta.Key != key {
			t.Fatalf("meta key %.12s, want specialized key %.12s", got.meta.Key, key)
		}
		for _, bits := range got.sols {
			a := parseBits(t, bits)
			if !leg.pin.Sat(a[0]) {
				t.Fatalf("solution %q violates assumption %d", bits, leg.pin)
			}
			if !f.Sat(a) {
				t.Fatalf("solution %q does not satisfy the formula", bits)
			}
		}

		// Differential: the conditioned CNF, posted plainly, spans the same
		// solution set (order may differ — the circuits are different).
		cond, err := f.Condition([]cnf.Lit{leg.pin})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		cond.WriteDIMACS(&sb)
		want := exhaust("target=100&seed=9&timeout=30s", sb.String())
		if want.done == nil || !want.done.Exhausted {
			t.Fatalf("assume=%d: conditioned stream did not exhaust", leg.pin)
		}
		a, b := append([]string{}, got.sols...), append([]string{}, want.sols...)
		sort.Strings(a)
		sort.Strings(b)
		if len(a) != leg.want || len(b) != leg.want {
			t.Fatalf("assume=%d: specialized stream has %d solutions, conditioned %d, want %d", leg.pin, len(a), len(b), leg.want)
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("assume=%d: specialized solutions differ from the conditioned CNF's", leg.pin)
		}
	}

	// The specialized artifact is now addressable by base key + pins and
	// by its own key — no body either way — without a recompile.
	misses := s.Compiler().Stats().Misses
	byKey := exhaust("target=5&seed=3&key="+baseKey+"&assume=-1", "")
	if byKey.meta.Key != specKey {
		t.Fatalf("key+assume routed to %.12s, want %.12s", byKey.meta.Key, specKey)
	}
	direct := exhaust("target=5&seed=3&key="+specKey, "")
	if direct.meta.Key != specKey {
		t.Fatal("specialized key is not directly addressable")
	}
	if st := s.Compiler().Stats(); st.Misses != misses {
		t.Fatalf("key-addressed assume requests recompiled: %+v", st)
	}
}

// TestAssumeRejections: malformed or impossible pin sets get typed errors
// before any stream starts.
func TestAssumeRejections(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name   string
		query  string
		body   string
		status int
	}{
		{"malformed", "assume=1,,x", assumeDIMACS, http.StatusBadRequest},
		{"zero", "assume=[0]", assumeDIMACS, http.StatusBadRequest},
		{"out-of-range", "assume=99", assumeDIMACS, http.StatusBadRequest},
		{"contradictory-spec", "assume=1,-1", assumeDIMACS, http.StatusBadRequest},
		{"unsat-under-pins", "assume=-1,-2,-3", assumeDIMACS, http.StatusConflict},
		{"unknown-base-key", "assume=1&key=deadbeef", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := postSample(t, ts.URL+"/v1/sample?target=2&"+tc.query, tc.body)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
		})
	}

	// Pins invalid for a resident base artifact: 400 (the key exists —
	// the request is wrong), distinct from the 404 above.
	warm, err := postSample(t, ts.URL+"/v1/sample?target=1", assumeDIMACS)
	if err != nil {
		t.Fatal(err)
	}
	warm.Body.Close()
	f, _ := cnf.ParseDIMACSString(assumeDIMACS)
	resp, err := postSample(t, ts.URL+"/v1/sample?target=1&key="+sampling.HashFormula(f)+"&assume=99", "")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad pins over resident key: status %d, want 400", resp.StatusCode)
	}
}

// FuzzAssumeSpec: the exported ?assume=/?project= parser never panics,
// never silently accepts a literal the validator would reject as zero, and
// always hands back the canonical pin set the problem key folds in.
func FuzzAssumeSpec(f *testing.F) {
	f.Add("1,2,3")
	f.Add("[1,-4]")
	f.Add("-1, 2 ,-3")
	f.Add("[]")
	f.Add("0")
	f.Add("1,,2")
	f.Add("[1.5]")
	f.Add("  ")
	f.Add("[9223372036854775807]")
	// Projection specs (the same grammar without signs).
	f.Add("1,4,7")
	f.Add("[2,3]")
	f.Add("3,3")
	f.Add("-2")
	f.Fuzz(func(t *testing.T, spec string) {
		if ps, err := ParseProblemSpec(url.Values{"assume": {spec}}); err == nil {
			for _, l := range ps.Assume {
				if l == 0 {
					t.Fatalf("spec %q parsed to a zero literal", spec)
				}
			}
			if !slices.Equal(ps.Assume, cnf.CanonicalAssume(ps.Assume)) {
				t.Fatalf("spec %q parsed to non-canonical pins %v", spec, ps.Assume)
			}
		}
		ParseProblemSpec(url.Values{"project": {spec}})
	})
}
