package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fastSleep records requested waits without actually sleeping.
func fastSleep(waits *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*waits = append(*waits, d)
		return ctx.Err()
	}
}

func writeStream(w http.ResponseWriter, lines ...string) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	for _, ln := range lines {
		fmt.Fprintln(w, ln)
	}
}

// TestSampleRetriesShedWithRetryAfter: 429s with Retry-After are retried
// after at least the advertised floor, and the stream then completes.
func TestSampleRetriesShedWithRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "7")
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		writeStream(w,
			`{"type":"meta","key":"k","batch":64,"target":2}`,
			`{"type":"solution","assignment":"01"}`,
			`{"type":"solution","assignment":"10"}`,
			`{"type":"done","unique":2,"delivered":2}`)
	}))
	defer ts.Close()
	var waits []time.Duration
	c := New(ts.URL, Config{Sleep: fastSleep(&waits)})
	res, err := c.Sample(context.Background(), Request{DIMACS: "p cnf 2 1\n1 2 0\n", Target: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 2 || res.Retries != 2 {
		t.Fatalf("solutions=%d retries=%d, want 2/2", len(res.Solutions), res.Retries)
	}
	if len(waits) != 2 || waits[0] < 7*time.Second || waits[1] < 7*time.Second {
		t.Fatalf("backoffs %v ignore the Retry-After floor of 7s", waits)
	}
}

// TestHeaderRetryAfter: both RFC 9110 forms parse — delay-seconds and
// HTTP-date — with negative and already-past values clamped to zero and
// garbage treated as absent.
func TestHeaderRetryAfter(t *testing.T) {
	now := time.Now()
	cases := []struct {
		name     string
		value    string
		min, max time.Duration
	}{
		{"absent", "", 0, 0},
		{"seconds", "7", 7 * time.Second, 7 * time.Second},
		{"zero-seconds", "0", 0, 0},
		{"negative-seconds", "-3", 0, 0},
		{"http-date-future", now.Add(90 * time.Second).UTC().Format(http.TimeFormat), 80 * time.Second, 91 * time.Second},
		{"http-date-past", now.Add(-time.Hour).UTC().Format(http.TimeFormat), 0, 0},
		// RFC 850 and ANSI C asctime are the other two dates http.ParseTime speaks.
		{"rfc850-future", now.Add(90 * time.Second).UTC().Format("Monday, 02-Jan-06 15:04:05 MST"), 80 * time.Second, 91 * time.Second},
		{"asctime-future", now.Add(90 * time.Second).UTC().Format(time.ANSIC), 80 * time.Second, 91 * time.Second},
		{"garbage", "soon", 0, 0},
		{"float", "2.5", 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := &http.Response{Header: http.Header{}}
			if tc.value != "" {
				resp.Header.Set("Retry-After", tc.value)
			}
			got := headerRetryAfter(resp)
			if got < tc.min || got > tc.max {
				t.Fatalf("headerRetryAfter(%q) = %v, want in [%v, %v]", tc.value, got, tc.min, tc.max)
			}
		})
	}
}

// TestSampleRetriesShedWithRetryAfterDate: the server advertising the
// HTTP-date form gets the same honored backoff floor as delay-seconds.
func TestSampleRetriesShedWithRetryAfterDate(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 1 {
			w.Header().Set("Retry-After", time.Now().Add(30*time.Second).UTC().Format(http.TimeFormat))
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		writeStream(w,
			`{"type":"meta","key":"k","batch":64,"target":1}`,
			`{"type":"solution","assignment":"01"}`,
			`{"type":"done","unique":1,"delivered":1}`)
	}))
	defer ts.Close()
	var waits []time.Duration
	c := New(ts.URL, Config{Sleep: fastSleep(&waits)})
	res, err := c.Sample(context.Background(), Request{DIMACS: "p cnf 2 1\n1 2 0\n", Target: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || res.Retries != 1 {
		t.Fatalf("solutions=%d retries=%d, want 1/1", len(res.Solutions), res.Retries)
	}
	// The date resolves to ~30s out; clock skew during the test only
	// shrinks it, never past the 25s floor checked here.
	if len(waits) != 1 || waits[0] < 25*time.Second {
		t.Fatalf("backoff %v ignores the HTTP-date Retry-After floor", waits)
	}
}

// TestSampleFollowsResumeToken: a drained stream is transparently
// re-attached via its token and the solutions accumulate exactly once.
func TestSampleFollowsResumeToken(t *testing.T) {
	token := strings.Repeat("ab", 32)
	var resumed atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("resume") == token {
			resumed.Store(true)
			writeStream(w,
				`{"type":"meta","key":"k","batch":64,"target":3,"resumed":true,"delivered":2}`,
				`{"type":"solution","assignment":"11"}`,
				`{"type":"done","unique":3,"delivered":3}`)
			return
		}
		writeStream(w,
			`{"type":"meta","key":"k","batch":64,"target":3}`,
			`{"type":"solution","assignment":"01"}`,
			`{"type":"solution","assignment":"10"}`,
			fmt.Sprintf(`{"type":"done","unique":2,"delivered":2,"drained":true,"timeout":true,"resume":%q}`, token))
	}))
	defer ts.Close()
	var waits []time.Duration
	c := New(ts.URL, Config{Sleep: fastSleep(&waits)})
	res, err := c.Sample(context.Background(), Request{DIMACS: "p cnf 2 1\n1 2 0\n", Target: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Load() {
		t.Fatal("client never issued the resume leg")
	}
	if got := strings.Join(res.Solutions, ","); got != "01,10,11" {
		t.Fatalf("accumulated stream %q, want 01,10,11", got)
	}
	if res.Resumes != 1 || res.Done.Drained {
		t.Fatalf("resumes=%d done=%+v", res.Resumes, res.Done)
	}
	if !res.Meta.Resumed == false {
		t.Fatalf("meta should be the first leg's: %+v", res.Meta)
	}
}

// TestSchemelessBaseURL: a base given as host:port (the form satserved
// -peers and satsharded -replicas accept), with or without a trailing
// slash, dials the server over http instead of failing URL parsing.
func TestSchemelessBaseURL(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sample" {
			http.Error(w, "unexpected path "+r.URL.Path, http.StatusNotFound)
			return
		}
		writeStream(w,
			`{"type":"meta","key":"k","batch":64,"target":1}`,
			`{"type":"solution","assignment":"01"}`,
			`{"type":"done","unique":1,"delivered":1}`)
	}))
	defer ts.Close()
	host := strings.TrimPrefix(ts.URL, "http://")
	for _, base := range []string{host, host + "/", " " + host + " "} {
		c := New(base, Config{MaxAttempts: 1})
		res, err := c.Sample(context.Background(), Request{DIMACS: "p cnf 2 1\n1 2 0\n", Target: 1})
		if err != nil {
			t.Fatalf("base %q: %v", base, err)
		}
		if got := strings.Join(res.Solutions, ","); got != "01" {
			t.Fatalf("base %q: stream %q, want 01", base, got)
		}
	}
}

// TestBases pins the one base-URL normalization shared by the client,
// the server's peer list and the shard router.
func TestBases(t *testing.T) {
	got := Bases(" 10.0.0.1:8080/ ", "", "https://a.example//", "http://b:1", "  ")
	want := []string{"http://10.0.0.1:8080", "https://a.example", "http://b:1"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Bases = %q, want %q", got, want)
	}
	if got := Bases(); len(got) != 0 {
		t.Fatalf("Bases() = %q, want empty", got)
	}
}

// TestSampleRestartsBrokenFreshStream: a transport failure mid-stream on a
// fresh request discards the partial leg and retries from scratch —
// nothing is double-counted.
func TestSampleRestartsBrokenFreshStream(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// One good line, then a dead connection (no done).
			writeStream(w,
				`{"type":"meta","key":"k","batch":64,"target":2}`,
				`{"type":"solution","assignment":"01"}`)
			if hj, ok := w.(http.Hijacker); ok {
				conn, _, _ := hj.Hijack()
				conn.Close()
			}
			return
		}
		writeStream(w,
			`{"type":"meta","key":"k","batch":64,"target":2}`,
			`{"type":"solution","assignment":"01"}`,
			`{"type":"solution","assignment":"10"}`,
			`{"type":"done","unique":2,"delivered":2}`)
	}))
	defer ts.Close()
	var waits []time.Duration
	c := New(ts.URL, Config{Sleep: fastSleep(&waits)})
	res, err := c.Sample(context.Background(), Request{DIMACS: "p cnf 2 1\n1 2 0\n", Target: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.Solutions, ","); got != "01,10" {
		t.Fatalf("accumulated stream %q, want 01,10 (broken leg discarded)", got)
	}
	if res.Retries != 1 {
		t.Fatalf("retries = %d, want 1", res.Retries)
	}
}

// refusingTransport fails the first n resume-leg dials with a raw
// transport error — the shape of a drained server mid-restart.
type refusingTransport struct {
	fails atomic.Int32
	rt    http.RoundTripper
}

func (f *refusingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Query().Get("resume") != "" && f.fails.Add(-1) >= 0 {
		return nil, errors.New("dial tcp: connection refused")
	}
	return f.rt.RoundTrip(r)
}

// TestSampleRetriesResumeAcrossOutage: a connection-level failure on a
// resume leg keeps the token and retries — the drained server's restart
// window must not strand the stream.
func TestSampleRetriesResumeAcrossOutage(t *testing.T) {
	token := strings.Repeat("ef", 32)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("resume") == token {
			writeStream(w,
				`{"type":"meta","key":"k","batch":64,"target":2,"resumed":true,"delivered":1}`,
				`{"type":"solution","assignment":"10"}`,
				`{"type":"done","unique":2,"delivered":2}`)
			return
		}
		writeStream(w,
			`{"type":"meta","key":"k","batch":64,"target":2}`,
			`{"type":"solution","assignment":"01"}`,
			fmt.Sprintf(`{"type":"done","unique":1,"delivered":1,"drained":true,"timeout":true,"resume":%q}`, token))
	}))
	defer ts.Close()
	tr := &refusingTransport{rt: http.DefaultTransport}
	tr.fails.Store(2)
	var waits []time.Duration
	c := New(ts.URL, Config{HTTP: &http.Client{Transport: tr}, Sleep: fastSleep(&waits)})
	res, err := c.Sample(context.Background(), Request{DIMACS: "p cnf 2 1\n1 2 0\n", Target: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.Solutions, ","); got != "01,10" {
		t.Fatalf("accumulated stream %q, want 01,10", got)
	}
	if res.Retries != 3 || res.Resumes != 1 {
		t.Fatalf("retries=%d resumes=%d, want 3/1 (drain + two refused dials)", res.Retries, res.Resumes)
	}
}

// TestSampleTerminalStatus: a 400 is not retried.
func TestSampleTerminalStatus(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad formula", http.StatusBadRequest)
	}))
	defer ts.Close()
	c := New(ts.URL, Config{Sleep: func(context.Context, time.Duration) error { return nil }})
	_, err := c.Sample(context.Background(), Request{DIMACS: "garbage", Target: 2})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want StatusError 400", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("terminal status was retried: %d calls", calls.Load())
	}
}

// TestSampleAttemptBudget: endless sheds exhaust MaxAttempts with the
// capped exponential schedule.
func TestSampleAttemptBudget(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "shed", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	var waits []time.Duration
	c := New(ts.URL, Config{
		MaxAttempts: 4,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		Sleep:       fastSleep(&waits),
	})
	_, err := c.Sample(context.Background(), Request{DIMACS: "p cnf 1 1\n1 0\n", Target: 1})
	if !errors.Is(err, ErrAttemptsExhausted) {
		t.Fatalf("err = %v, want ErrAttemptsExhausted", err)
	}
	if len(waits) != 4 {
		t.Fatalf("%d backoffs for 4 attempts", len(waits))
	}
	for _, d := range waits {
		// cap 20ms plus 25% jitter headroom
		if d > 25*time.Millisecond {
			t.Fatalf("backoff %v exceeds the cap", d)
		}
	}
}

// TestSampleResumeFromTokenParam: Request.Resume starts directly at the
// resume leg without posting a formula.
func TestSampleResumeFromTokenParam(t *testing.T) {
	token := strings.Repeat("cd", 32)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("resume") != token {
			http.Error(w, "expected a resume leg", http.StatusBadRequest)
			return
		}
		if r.ContentLength > 0 {
			http.Error(w, "resume leg re-sent a body", http.StatusBadRequest)
			return
		}
		writeStream(w,
			`{"type":"meta","key":"k","batch":64,"target":1,"resumed":true,"delivered":5}`,
			`{"type":"solution","assignment":"1"}`,
			`{"type":"done","unique":6,"delivered":6}`)
	}))
	defer ts.Close()
	c := New(ts.URL, Config{})
	res, err := c.Sample(context.Background(), Request{Resume: token, Target: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || !res.Meta.Resumed || res.Meta.Delivered != 5 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

// TestFleetRotatesOnDeadReplica: fresh legs rotate through the fleet, so
// a dead first replica costs one retry, not the request.
func TestFleetRotatesOnDeadReplica(t *testing.T) {
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeStream(w,
			`{"type":"meta","key":"k","batch":64,"target":1}`,
			`{"type":"solution","assignment":"1"}`,
			`{"type":"done","unique":1,"delivered":1}`)
	}))
	defer good.Close()
	dead := httptest.NewServer(nil)
	dead.Close() // immediately: dials refuse

	var waits []time.Duration
	c := NewFleet([]string{dead.URL, good.URL}, Config{Sleep: fastSleep(&waits)})
	res, err := c.Sample(context.Background(), Request{DIMACS: "p cnf 1 1\n1 0\n", Target: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || res.Retries != 1 {
		t.Fatalf("solutions=%d retries=%d, want 1 solution after 1 rotation", len(res.Solutions), res.Retries)
	}
}

// TestFleetRotatesOnShed: a shedding replica pushes fresh legs to the next
// base instead of hammering the shedder through its backoff.
func TestFleetRotatesOnShed(t *testing.T) {
	var shedderCalls atomic.Int64
	shedder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		shedderCalls.Add(1)
		http.Error(w, "shed", http.StatusServiceUnavailable)
	}))
	defer shedder.Close()
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeStream(w,
			`{"type":"meta","key":"k","batch":64,"target":1}`,
			`{"type":"solution","assignment":"1"}`,
			`{"type":"done","unique":1,"delivered":1}`)
	}))
	defer good.Close()

	var waits []time.Duration
	c := NewFleet([]string{shedder.URL, good.URL}, Config{Sleep: fastSleep(&waits)})
	res, err := c.Sample(context.Background(), Request{DIMACS: "p cnf 1 1\n1 0\n", Target: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || shedderCalls.Load() != 1 {
		t.Fatalf("solutions=%d shedderCalls=%d, want the second leg on the healthy base", len(res.Solutions), shedderCalls.Load())
	}
}

// TestFleetFollowsResumeAddr: a handoff's resume_addr pins the resume leg
// to the adopting peer even though that peer is not in the client's base
// list — and the rotation cursor is untouched for later fresh legs.
func TestFleetFollowsResumeAddr(t *testing.T) {
	token := strings.Repeat("ba", 32)
	var adopterResumes atomic.Int64
	adopter := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("resume") != token {
			http.Error(w, "expected the handed-off token", http.StatusBadRequest)
			return
		}
		adopterResumes.Add(1)
		writeStream(w,
			`{"type":"meta","key":"k","batch":64,"target":2,"resumed":true,"delivered":1}`,
			`{"type":"solution","assignment":"10"}`,
			`{"type":"done","unique":2,"delivered":2}`)
	}))
	defer adopter.Close()
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("resume") != "" {
			http.Error(w, "token was handed off, not here", http.StatusBadRequest)
			return
		}
		writeStream(w,
			`{"type":"meta","key":"k","batch":64,"target":2}`,
			`{"type":"solution","assignment":"01"}`,
			fmt.Sprintf(`{"type":"done","unique":1,"delivered":1,"drained":true,"timeout":true,"resume":%q,"resume_addr":%q}`, token, adopter.URL))
	}))
	defer origin.Close()

	var waits []time.Duration
	c := NewFleet([]string{origin.URL}, Config{Sleep: fastSleep(&waits)})
	res, err := c.Sample(context.Background(), Request{DIMACS: "p cnf 2 1\n1 2 0\n", Target: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.Solutions, ","); got != "01,10" {
		t.Fatalf("accumulated stream %q, want 01,10", got)
	}
	if adopterResumes.Load() != 1 || res.Resumes != 1 {
		t.Fatalf("adopterResumes=%d resumes=%d, want the resume leg at the adopter", adopterResumes.Load(), res.Resumes)
	}
}

// TestSampleElapsedBudget: against a fleet that never answers, the
// wall-clock budget produces one clear terminal error naming the attempt
// count, even with attempts left in MaxAttempts.
func TestSampleElapsedBudget(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close()
	dead2 := httptest.NewServer(nil)
	dead2.Close()

	var waits []time.Duration
	c := NewFleet([]string{dead.URL, dead2.URL}, Config{
		MaxAttempts: 1000,
		MaxElapsed:  150 * time.Millisecond,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			waits = append(waits, d)
			time.Sleep(5 * time.Millisecond) // real time must pass for the budget
			return ctx.Err()
		},
	})
	start := time.Now()
	res, err := c.Sample(context.Background(), Request{DIMACS: "p cnf 1 1\n1 0\n", Target: 1})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if !strings.Contains(err.Error(), "attempt") || !strings.Contains(err.Error(), "2 address(es)") {
		t.Fatalf("terminal error %q does not name attempts and fleet size", err)
	}
	if res == nil {
		t.Fatal("partial result dropped on budget exhaustion")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("budget exhaustion took %v", elapsed)
	}
	if len(waits) == 0 {
		t.Fatal("no attempts were made before the budget ran out")
	}
}

// TestOnSolutionHook: the delivery hook observes every accumulated
// solution with its running total — across legs, in order.
func TestOnSolutionHook(t *testing.T) {
	token := strings.Repeat("dc", 32)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("resume") == token {
			writeStream(w,
				`{"type":"meta","key":"k","batch":64,"target":3,"resumed":true,"delivered":2}`,
				`{"type":"solution","assignment":"11"}`,
				`{"type":"done","unique":3,"delivered":3}`)
			return
		}
		writeStream(w,
			`{"type":"meta","key":"k","batch":64,"target":3}`,
			`{"type":"solution","assignment":"01"}`,
			`{"type":"solution","assignment":"10"}`,
			fmt.Sprintf(`{"type":"done","unique":2,"delivered":2,"drained":true,"timeout":true,"resume":%q}`, token))
	}))
	defer ts.Close()
	var totals []int
	var waits []time.Duration
	c := New(ts.URL, Config{Sleep: fastSleep(&waits), OnSolution: func(n int) { totals = append(totals, n) }})
	if _, err := c.Sample(context.Background(), Request{DIMACS: "p cnf 2 1\n1 2 0\n", Target: 3}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(totals) != "[1 2 3]" {
		t.Fatalf("OnSolution totals %v, want [1 2 3]", totals)
	}
}
