package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/sampling"
	"repro/internal/store"
	"repro/internal/tensor"
)

// streamLine is the union of every NDJSON line the server emits.
type streamLine struct {
	Type          string  `json:"type"`
	Key           string  `json:"key"`
	Batch         int     `json:"batch"`
	Target        int     `json:"target"`
	ProjectedVars int     `json:"projected_vars"`
	Assignment    string  `json:"assignment"`
	Unique        int     `json:"unique"`
	Delivered     int     `json:"delivered"`
	SolPerSec     float64 `json:"sol_per_sec"`
	Timeout       bool    `json:"timeout"`
	Exhausted     bool    `json:"exhausted"`
	Drained       bool    `json:"drained"`
	Resumed       bool    `json:"resumed"`
	Resume        string  `json:"resume"`
	ResumeAddr    string  `json:"resume_addr"`
	Preempted     bool    `json:"preempted"`
	Preemptions   int     `json:"preemptions"`
	Assumptions   []int   `json:"assumptions"`
}

type stream struct {
	meta streamLine
	sols []string
	done *streamLine
}

// readStream consumes a whole NDJSON response body.
func readStream(t *testing.T, body io.Reader) stream {
	t.Helper()
	var out stream
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		var ln streamLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ln.Type {
		case "meta":
			out.meta = ln
		case "solution":
			out.sols = append(out.sols, ln.Assignment)
		case "done":
			done := ln
			out.done = &done
		default:
			t.Fatalf("unknown line type %q", ln.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return out
}

func parseBits(t *testing.T, s string) []bool {
	t.Helper()
	out := make([]bool, len(s))
	for i, c := range s {
		switch c {
		case '1':
			out[i] = true
		case '0':
		default:
			t.Fatalf("bad assignment char %q", c)
		}
	}
	return out
}

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Device == (tensor.Device{}) {
		cfg.Device = tensor.ParallelN(2)
	}
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = 20 * time.Second
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

// manyVarsFormula has ~3^n models — an effectively inexhaustible stream
// for tests that need a long-lived unbounded session.
func manyVarsFormula(n int) *cnf.Formula {
	f := cnf.New(0)
	for i := 0; i < n; i++ {
		f.AddClause(cnf.Lit(2*i+1), cnf.Lit(2*i+2))
	}
	return f
}

// TestConcurrentClientsSharedCompile is the PR's acceptance check: 16
// concurrent clients over 4 distinct formulas compile each formula exactly
// once (misses == 4) and every streamed solution verifies against its CNF.
func TestConcurrentClientsSharedCompile(t *testing.T) {
	compiler := sampling.NewCompiler(0)
	_, ts := testServer(t, Config{Compiler: compiler})

	ins := benchgen.SmallSuite()
	if len(ins) != 4 {
		t.Fatalf("small suite has %d instances, want 4", len(ins))
	}
	const target = 10
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f := ins[c%4].Formula
			url := fmt.Sprintf("%s/v1/sample?target=%d&tenant=t%d", ts.URL, target, c%3)
			resp, err := http.Post(url, "text/plain", strings.NewReader(f.DIMACSString()))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				t.Errorf("client %d: status %d: %s", c, resp.StatusCode, body)
				return
			}
			st := readStream(t, resp.Body)
			if st.done == nil {
				t.Errorf("client %d: stream ended without a done line", c)
				return
			}
			if len(st.sols) != st.done.Delivered {
				t.Errorf("client %d: %d solutions read, done says %d", c, len(st.sols), st.done.Delivered)
			}
			if !st.done.Exhausted && !st.done.Timeout && st.done.Delivered != target {
				t.Errorf("client %d: delivered=%d, want %d", c, st.done.Delivered, target)
			}
			if st.done.Unique < st.done.Delivered {
				t.Errorf("client %d: unique=%d < delivered=%d", c, st.done.Unique, st.done.Delivered)
			}
			if len(st.sols) == 0 {
				t.Errorf("client %d: no solutions streamed", c)
			}
			for _, sol := range st.sols {
				bits := parseBits(t, sol)
				if len(bits) != f.NumVars {
					t.Errorf("client %d: assignment over %d vars, want %d", c, len(bits), f.NumVars)
					return
				}
				if !f.Sat(bits) {
					t.Errorf("client %d: unsatisfying assignment streamed", c)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	cs := compiler.Stats()
	if cs.Misses != 4 {
		t.Errorf("compiler misses = %d, want 4 (one compile per distinct formula)", cs.Misses)
	}
	if cs.Hits != 12 {
		t.Errorf("compiler hits = %d, want 12", cs.Hits)
	}
	if cs.ResidentBytes <= 0 {
		t.Errorf("compiler resident bytes = %d, want > 0", cs.ResidentBytes)
	}
}

func TestSubmitByKey(t *testing.T) {
	_, ts := testServer(t, Config{})
	f := benchgen.SmallSuite()[0].Formula

	resp, err := http.Post(ts.URL+"/v1/sample?target=5", "text/plain", strings.NewReader(f.DIMACSString()))
	if err != nil {
		t.Fatal(err)
	}
	st := readStream(t, resp.Body)
	resp.Body.Close()
	if st.meta.Key == "" {
		t.Fatal("meta line carries no problem key")
	}

	// Re-submit by key: no body, same compiled problem.
	resp2, err := http.Post(ts.URL+"/v1/sample?target=5&key="+st.meta.Key, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("submit by key: status %d", resp2.StatusCode)
	}
	st2 := readStream(t, resp2.Body)
	if st2.meta.Key != st.meta.Key {
		t.Error("key changed across submits")
	}
	if st2.done == nil || st2.done.Unique == 0 {
		t.Error("key-based stream returned no solutions")
	}
	for _, sol := range st2.sols {
		if !f.Sat(parseBits(t, sol)) {
			t.Fatal("unsatisfying assignment from key-based stream")
		}
	}

	resp3, err := http.Post(ts.URL+"/v1/sample?key=deadbeef", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key: status %d, want 404", resp3.StatusCode)
	}
}

// startUnboundedStream opens target=0 stream and confirms it is granted
// (meta line read) and producing (n solutions read). Returns a cancel that
// closes the client side and the buffered reader for further reads.
func startUnboundedStream(t *testing.T, url string, readSols int) (*bufio.Scanner, context.CancelFunc, *http.Response) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(manyVarsFormula(30).DIMACSString()))
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("unbounded stream: status %d: %s", resp.StatusCode, body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lines := 0
	for lines < readSols+1 && sc.Scan() { // meta + readSols solutions
		lines++
	}
	if lines < readSols+1 {
		resp.Body.Close()
		cancel()
		t.Fatalf("unbounded stream produced only %d lines: %v", lines, sc.Err())
	}
	return sc, cancel, resp
}

// TestShedQueueFull: with one worker slot, zero waiting room and an active
// stream, a second submission is shed with 429 + Retry-After while the
// first keeps streaming.
func TestShedQueueFull(t *testing.T) {
	// Large MaxTarget keeps the "unbounded" (target=0 -> cap) streams
	// alive for the whole test.
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 1, MaxTarget: 1_000_000})
	// Occupy the single worker slot...
	sc, cancel, resp := startUnboundedStream(t, ts.URL+"/v1/sample?target=0&timeout=30s", 2)
	defer resp.Body.Close()
	defer cancel()

	// ...and the single waiting spot with a second stream.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	req2, _ := http.NewRequestWithContext(ctx2, http.MethodPost,
		ts.URL+"/v1/sample?target=0&timeout=30s", strings.NewReader(manyVarsFormula(30).DIMACSString()))
	done2 := make(chan struct{})
	go func() {
		defer close(done2)
		if resp2, err := http.DefaultClient.Do(req2); err == nil {
			resp2.Body.Close()
		}
	}()
	waitFor(t, func() bool { return s.queue.Depth() == 1 })

	// Third submission: queue full -> 429.
	resp3, err := http.Post(ts.URL+"/v1/sample?target=5", "text/plain",
		strings.NewReader(manyVarsFormula(30).DIMACSString()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// The in-flight stream is unharmed: it keeps producing.
	for i := 0; i < 3; i++ {
		if !sc.Scan() {
			t.Fatalf("in-flight stream died after shed: %v", sc.Err())
		}
	}
	cancel2()
	<-done2
}

// TestShedMemoryBudget: a budget sized for one session sheds the second
// submission with 429 while the first streams on, and admits it again once
// the first finishes.
func TestShedMemoryBudget(t *testing.T) {
	const maxTarget = 1_000_000
	compiler := sampling.NewCompiler(0)
	s := New(Config{Compiler: compiler, Device: tensor.ParallelN(2), MaxTarget: maxTarget})
	defer s.Close()
	prob, err := compiler.Compile(manyVarsFormula(30))
	if err != nil {
		t.Fatal(err)
	}
	// The estimate of one capped "unbounded" stream (target=0 -> cap),
	// dedup pool included (no projection).
	batch := prob.BatchFor(sampling.SessionConfig{Device: s.cfg.Device, MemoryBudget: s.cfg.SessionMemory})
	est := prob.Core().MemoryEstimate(core.Shape{Workers: s.cfg.Device.Workers(), Batch: batch, Target: maxTarget})

	_, ts := testServer(t, Config{
		Compiler:     sampling.NewCompiler(0),
		Device:       tensor.ParallelN(2),
		MaxTarget:    maxTarget,
		MemoryBudget: est + est/2, // room for one such session, not two
	})
	sc, cancel, resp := startUnboundedStream(t, ts.URL+"/v1/sample?target=0&timeout=30s", 2)
	defer resp.Body.Close()

	// A second equally expensive stream must be shed...
	resp2, err := http.Post(ts.URL+"/v1/sample?target=0&timeout=30s", "text/plain",
		strings.NewReader(manyVarsFormula(30).DIMACSString()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget submission: status %d, want 429", resp2.StatusCode)
	}

	// ...while a cheap one (tiny pool term) still fits in the headroom.
	resp3, err := http.Post(ts.URL+"/v1/sample?target=5", "text/plain",
		strings.NewReader(manyVarsFormula(30).DIMACSString()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("cheap submission under budget: status %d, want 200", resp3.StatusCode)
	}

	// In-flight stream unaffected by the shed.
	for i := 0; i < 3; i++ {
		if !sc.Scan() {
			t.Fatalf("in-flight stream died after shed: %v", sc.Err())
		}
	}
	cancel() // release the first session's reservation

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp4, err := http.Post(ts.URL+"/v1/sample?target=0&timeout=300ms", "text/plain",
			strings.NewReader(manyVarsFormula(30).DIMACSString()))
		if err != nil {
			t.Fatal(err)
		}
		ok := resp4.StatusCode == http.StatusOK
		io.Copy(io.Discard, resp4.Body)
		resp4.Body.Close()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reservation never released: status %d", resp4.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStreamStaysInsidePricedPool: a finished stream's dedup pool never
// holds more solutions than admission priced it for. The final tick can
// retire most of a batch past a small target, and a resumed stream starts
// from the pool its checkpoint holds; both stay inside the bound.
func TestStreamStaysInsidePricedPool(t *testing.T) {
	s, _ := testServer(t, Config{SessionMemory: 1 << 20, MaxTarget: 1_000_000})
	body := manyVarsFormula(30).DIMACSString()
	run := func(query string, rd io.Reader) {
		t.Helper()
		r := httptest.NewRequest(http.MethodPost, "/v1/sample?"+query, rd)
		req, serr := s.parseRequest(r)
		var prob *sampling.Problem
		if serr == nil {
			prob, serr = s.resolve(r, req)
		}
		var adm *admission
		if serr == nil {
			adm, serr = s.admit(r.Context(), req, prob)
		}
		if serr != nil {
			t.Fatalf("%s: %s", query, serr.msg)
		}
		s.stream(httptest.NewRecorder(), r, req, prob, adm)
		adm.release()
		unique, pool := adm.sess.Core().UniqueCount(), adm.shape.Pool()
		t.Logf("%s: batch %d, %d unique, priced for %d", query, adm.shape.Batch, unique, pool)
		if unique > pool {
			t.Errorf("%s: stream ended holding %d solutions, priced for %d", query, unique, pool)
		}
	}
	for _, target := range []int{1, 7, 100, 1000} {
		run(fmt.Sprintf("target=%d&seed=3", target), strings.NewReader(body))
		run(fmt.Sprintf("target=%d&seed=3&project=1,3,5,7,9,11,13,15,17,19", target), strings.NewReader(body))
	}
	token, err := s.spoolPut(checkpointEnvelope(t, 64))
	if err != nil {
		t.Fatal(err)
	}
	run("resume="+token+"&target=100", nil)
}

// TestDrainPartialResults: drain cancels an unbounded in-flight stream
// after the grace, and the stream still ends with a well-formed done line
// carrying the partial results; new submissions and health checks see 503.
func TestDrainPartialResults(t *testing.T) {
	s, ts := testServer(t, Config{DrainGrace: 100 * time.Millisecond, MaxTarget: 1_000_000})
	sc, cancel, resp := startUnboundedStream(t, ts.URL+"/v1/sample?target=0&timeout=30s", 3)
	defer resp.Body.Close()
	defer cancel()

	s.StartDrain()

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", hresp.StatusCode)
	}
	nresp, err := http.Post(ts.URL+"/v1/sample?target=5", "text/plain",
		strings.NewReader(manyVarsFormula(30).DIMACSString()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, nresp.Body)
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submission while draining: %d, want 503", nresp.StatusCode)
	}

	// Drain the remaining stream: must terminate with done{drained:true}.
	var done *streamLine
	sols := 3 // already read by startUnboundedStream
	for sc.Scan() {
		var ln streamLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if ln.Type == "solution" {
			sols++
		}
		if ln.Type == "done" {
			done = &ln
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream error during drain: %v", err)
	}
	if done == nil {
		t.Fatal("drained stream ended without a done line")
	}
	if !done.Drained || !done.Timeout {
		t.Errorf("done line drained=%v timeout=%v, want true/true", done.Drained, done.Timeout)
	}
	if done.Unique < 3 {
		t.Errorf("partial results lost: unique=%d, want >= 3", done.Unique)
	}
	if sols != done.Delivered {
		t.Errorf("read %d solutions, done says %d delivered", sols, done.Delivered)
	}
}

func TestBadInputs(t *testing.T) {
	_, ts := testServer(t, Config{Limits: cnf.ParseLimits{MaxBytes: 256, MaxVars: 64, MaxClauses: 64, MaxLiterals: 128}})

	resp, err := http.Post(ts.URL+"/v1/sample", "text/plain", strings.NewReader("not a cnf at all"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: %d, want 400", resp.StatusCode)
	}

	big := manyVarsFormula(200).DIMACSString() // ~1.5 KB > 256-byte limit
	resp2, err := http.Post(ts.URL+"/v1/sample", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d, want 413", resp2.StatusCode)
	}

	resp3, err := http.Post(ts.URL+"/v1/sample?target=banana", "text/plain", strings.NewReader("1 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("bad target: %d, want 400", resp3.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	f := benchgen.SmallSuite()[0].Formula
	resp, err := http.Post(ts.URL+"/v1/sample?target=5", "text/plain", strings.NewReader(f.DIMACSString()))
	if err != nil {
		t.Fatal(err)
	}
	readStream(t, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"satserved_queue_depth 0",
		"satserved_active_sessions 0",
		`satserved_requests_total{outcome="ok"} 1`,
		"satserved_solutions_total 5",
		"satserved_compiler_misses_total 1",
		"satserved_compiler_entries 1",
		"satserved_compiler_resident_bytes",
		"satserved_sol_per_sec",
		"satserved_draining 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || !strings.Contains(string(hbody), `"status":"ok"`) {
		t.Errorf("healthz: %d %s", hresp.StatusCode, hbody)
	}
}

// TestStoreMetricsFromCompiler: a durable tier attached only through
// Compiler.WithStore reports its own view on /metrics once a compile has
// written the artifact back to it.
func TestStoreMetricsFromCompiler(t *testing.T) {
	st, err := store.Open(t.TempDir(), 1<<30, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Config{Compiler: sampling.NewCompiler(0).WithStore(st)})
	resp, err := http.Post(ts.URL+"/v1/sample?target=5", "text/plain",
		strings.NewReader(benchgen.SmallSuite()[0].Formula.DIMACSString()))
	if err != nil {
		t.Fatal(err)
	}
	readStream(t, resp.Body)
	resp.Body.Close()
	if got := scrapeMetric(t, ts.URL, "satserved_store_entries"); got != 1 {
		t.Errorf("satserved_store_entries = %v, want 1", got)
	}
	if got := scrapeMetric(t, ts.URL, "satserved_store_bytes"); got <= 0 {
		t.Errorf("satserved_store_bytes = %v, want > 0", got)
	}
}
