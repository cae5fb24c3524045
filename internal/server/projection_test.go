package server

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/sampling"
)

// projBody: four disjoint 3-literal clauses; projected onto one variable
// per clause the solution space is exactly 16.
const projBody = "p cnf 12 4\n1 2 3 0\n4 5 6 0\n7 8 9 0\n10 11 12 0\n"

// TestProjectedSampling: ?project= bounds solution identity — the stream
// delivers one full-model witness per projected class, all witnesses
// verify against the CNF, their projected signatures are pairwise
// distinct, and the done line reports the projection width.
func TestProjectedSampling(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, spec := range []string{"1,4,7,10", "[1,4,7,10]"} {
		resp, err := http.Post(ts.URL+"/v1/sample?target=0&timeout=15s&project="+spec,
			"text/plain", strings.NewReader(projBody))
		if err != nil {
			t.Fatal(err)
		}
		st := readStream(t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("spec %q: status %d", spec, resp.StatusCode)
		}
		if st.meta.ProjectedVars != 4 {
			t.Fatalf("spec %q: meta projected_vars = %d, want 4", spec, st.meta.ProjectedVars)
		}
		if st.done == nil || st.done.ProjectedVars != 4 {
			t.Fatalf("spec %q: done line missing projected_vars: %+v", spec, st.done)
		}
		if !st.done.Exhausted || st.done.Unique != 16 || len(st.sols) != 16 {
			t.Fatalf("spec %q: unique=%d sols=%d exhausted=%v, want 16/16/true",
				spec, st.done.Unique, len(st.sols), st.done.Exhausted)
		}
		f, _ := cnf.ParseDIMACSString(projBody)
		seen := map[string]bool{}
		for _, sol := range st.sols {
			bits := parseBits(t, sol)
			if !f.Sat(bits) {
				t.Fatalf("spec %q: witness does not satisfy the CNF", spec)
			}
			sig := string([]byte{sol[0], sol[3], sol[6], sol[9]})
			if seen[sig] {
				t.Fatalf("spec %q: projected signature %s streamed twice", spec, sig)
			}
			seen[sig] = true
		}
	}
}

// TestProjectionInBodyAndCacheKey: "c ind" lines in the posted DIMACS
// drive projected sampling, and the cache key separates projected from
// unprojected submissions of the same clauses.
func TestProjectionInBodyAndCacheKey(t *testing.T) {
	compiler := sampling.NewCompiler(0)
	_, ts := testServer(t, Config{Compiler: compiler})

	post := func(body string) stream {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sample?target=0&timeout=15s", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return readStream(t, resp.Body)
	}
	plain := post(projBody)
	proj := post("c ind 1 4 7 10 0\n" + projBody)
	if plain.meta.Key == proj.meta.Key {
		t.Fatal("projected and unprojected submissions share a cache key")
	}
	if plain.meta.ProjectedVars != 0 || proj.meta.ProjectedVars != 4 {
		t.Fatalf("projected_vars: plain=%d proj=%d", plain.meta.ProjectedVars, proj.meta.ProjectedVars)
	}
	if proj.done.Unique != 16 {
		t.Fatalf("body-declared projection: unique=%d, want 16", proj.done.Unique)
	}
	if plain.done.Unique <= proj.done.Unique {
		t.Fatalf("full-identity stream found %d <= projected %d", plain.done.Unique, proj.done.Unique)
	}
	if cs := compiler.Stats(); cs.Misses != 2 {
		t.Fatalf("cache misses = %d, want 2 (distinct keys compile separately)", cs.Misses)
	}

	// Submit-by-key with a session-level projection over the unprojected
	// artifact: same projected space, no recompile.
	resp, err := http.Post(ts.URL+"/v1/sample?target=0&timeout=15s&project=1,4,7,10&key="+plain.meta.Key,
		"text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	byKey := readStream(t, resp.Body)
	if byKey.done.Unique != 16 || byKey.meta.ProjectedVars != 4 {
		t.Fatalf("key+project: unique=%d projected_vars=%d", byKey.done.Unique, byKey.meta.ProjectedVars)
	}
	if cs := compiler.Stats(); cs.Misses != 2 {
		t.Fatalf("key+project recompiled: misses = %d", cs.Misses)
	}
}

// TestProjectionValidationErrors: malformed, out-of-range and duplicate
// projection specs are 400s, for both body and key submissions.
func TestProjectionValidationErrors(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/sample?target=4", "text/plain", strings.NewReader(projBody))
	if err != nil {
		t.Fatal(err)
	}
	key := readStream(t, resp.Body).meta.Key
	resp.Body.Close()

	cases := []string{
		"/v1/sample?project=abc",
		"/v1/sample?project=[1,2",
		"/v1/sample?project=1,99", // out of range
		"/v1/sample?project=2,2",  // duplicate
		"/v1/sample?project=0,1",  // zero is not a variable
		"/v1/sample?project=-1",   // negative
		"/v1/sample?project=1,99&key=" + key,
	}
	for _, path := range cases {
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(projBody))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestProjectedSessionPricedHigher: the admission ledger must charge a
// projected session for its projection columns and stored signatures —
// projected load cannot slip under the memory budget the unprojected
// estimate was tuned for.
func TestProjectedSessionPricedHigher(t *testing.T) {
	f, err := cnf.ParseDIMACSString(projBody)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := sampling.CompileProblem(f)
	if err != nil {
		t.Fatal(err)
	}
	shape := core.Shape{Workers: 1, Batch: 1024, Target: 1000}
	plain := prob.Core().MemoryEstimate(shape)
	shape.Projection = 8
	proj := prob.Core().MemoryEstimate(shape)
	if proj <= plain {
		t.Fatalf("projected estimate %d <= unprojected %d", proj, plain)
	}
}

// TestProjectedMetrics: the projected counters appear on /metrics after a
// projected stream completes.
func TestProjectedMetrics(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/sample?target=0&timeout=15s&project=1,4",
		"text/plain", strings.NewReader(projBody))
	if err != nil {
		t.Fatal(err)
	}
	st := readStream(t, resp.Body)
	resp.Body.Close()
	if st.done == nil || st.done.Unique != 4 {
		t.Fatalf("2-variable projection: unique=%d, want 4", st.done.Unique)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"satserved_projected_requests_total 1",
		"satserved_projected_solutions_total 4",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
