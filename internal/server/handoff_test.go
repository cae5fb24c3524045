package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// scrapeMetric reads one counter/gauge value off a server's /metrics page.
func scrapeMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.eE+-]+)$`)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if m := re.FindStringSubmatch(sc.Text()); m != nil {
			v, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, m[1])
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// readRest drains a stream to its done line, collecting solutions.
func readRest(t *testing.T, sc *bufio.Scanner) (sols []string, done streamLine) {
	t.Helper()
	got := false
	for sc.Scan() {
		var ln streamLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		switch ln.Type {
		case "solution":
			sols = append(sols, ln.Assignment)
		case "done":
			done, got = ln, true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if !got {
		t.Fatal("stream ended without a done line")
	}
	return sols, done
}

// TestHandoffToPeerZeroLoss is the tentpole's in-process acceptance path:
// an unbounded pinned-seed stream on server A is interrupted — once by the
// /v1/handoff admin endpoint, once by a drain — and each time A pushes the
// checkpoint straight to peer B over /v1/adopt. The done line points the
// client at B (resume_addr), the resumed stream on B continues exactly
// where A stopped, and the merged stream equals an uninterrupted same-seed
// run solution for solution.
func TestHandoffToPeerZeroLoss(t *testing.T) {
	_, tsB := testServer(t, Config{})
	srvA, tsA := testServer(t, Config{Peers: []string{tsB.URL}, PeerProbe: 50 * time.Millisecond,
		DrainGrace: 50 * time.Millisecond})
	_, tsRef := testServer(t, Config{})

	dimacs := manyVarsFormula(30).DIMACSString()
	const nRef = 60

	// Uninterrupted reference run for the same seed.
	_, refSC, refCancel, refClose := openStream(t, tsRef.URL+"/v1/sample?target=0&seed=9", strings.NewReader(dimacs))
	want := readNSols(t, refSC, nRef)
	refCancel()
	refClose()

	interrupts := []struct {
		name      string
		seed      int64
		interrupt func()
	}{
		{"admin-handoff", 9, func() {
			resp, err := http.Post(tsA.URL+"/v1/handoff", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body struct {
				Signaled int `json:"signaled"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("handoff response: %v", err)
			}
			if body.Signaled < 1 {
				t.Fatalf("handoff signalled %d streams, want >= 1", body.Signaled)
			}
		}},
		{"drain", 9, srvA.StartDrain},
	}
	for _, tc := range interrupts {
		t.Run(tc.name, func(t *testing.T) {
			sentBefore := scrapeMetric(t, tsA.URL, "satserved_handoff_sent_total")
			adoptedBefore := scrapeMetric(t, tsB.URL, "satserved_handoff_adopted_total")

			url := fmt.Sprintf("%s/v1/sample?target=0&seed=%d", tsA.URL, tc.seed)
			_, sc, cancel, closeBody := openStream(t, url, strings.NewReader(dimacs))
			defer closeBody()
			defer cancel()
			sols := readNSols(t, sc, 5)
			tc.interrupt()
			rest, done := readRest(t, sc)
			sols = append(sols, rest...)

			if done.Resume == "" {
				t.Fatalf("%s: done line carries no resume token: %+v", tc.name, done)
			}
			if done.ResumeAddr != tsB.URL {
				t.Fatalf("%s: resume_addr = %q, want peer %q", tc.name, done.ResumeAddr, tsB.URL)
			}
			if got := scrapeMetric(t, tsA.URL, "satserved_handoff_sent_total"); got <= sentBefore {
				t.Fatalf("%s: handoff_sent_total did not advance (%v)", tc.name, got)
			}
			if got := scrapeMetric(t, tsB.URL, "satserved_handoff_adopted_total"); got <= adoptedBefore {
				t.Fatalf("%s: peer's handoff_adopted_total did not advance (%v)", tc.name, got)
			}

			// Follow resume_addr: the stream continues on B, from B's spool.
			resumeURL := fmt.Sprintf("%s/v1/sample?resume=%s&target=0", done.ResumeAddr, done.Resume)
			meta, sc2, cancel2, close2 := openStream(t, resumeURL, nil)
			defer close2()
			defer cancel2()
			if !meta.Resumed || meta.Delivered != len(sols) {
				t.Fatalf("%s: resume meta = %+v, want resumed at %d", tc.name, meta, len(sols))
			}
			if need := nRef - len(sols); need > 0 {
				sols = append(sols, readNSols(t, sc2, need)...)
			}
			for i := 0; i < nRef; i++ {
				if sols[i] != want[i] {
					t.Fatalf("%s: solution %d diverged after handoff:\n got %s\nwant %s", tc.name, i, sols[i], want[i])
				}
			}
		})
	}
}

// TestHandoffFallsBackToLocalSpool: with no peer willing to adopt (the
// only peer rejects via an injected fault), an interrupted stream's
// checkpoint parks in the local spool exactly as before peers existed —
// the done line carries a local token and no resume_addr, and the
// rejecting peer counts the refusal.
func TestHandoffFallsBackToLocalSpool(t *testing.T) {
	inj := faultinject.New(mustPlan(t, "rejectadopt=100"))
	_, tsB := testServer(t, Config{Injector: inj})
	srvA, tsA := testServer(t, Config{Peers: []string{tsB.URL}, PeerProbe: 50 * time.Millisecond,
		DrainGrace: 50 * time.Millisecond})

	_, sc, cancel, closeBody := openStream(t, tsA.URL+"/v1/sample?target=0&seed=3",
		strings.NewReader(manyVarsFormula(30).DIMACSString()))
	defer closeBody()
	defer cancel()
	readNSols(t, sc, 3)
	srvA.StartDrain()
	_, done := readRest(t, sc)
	if done.Resume == "" || done.ResumeAddr != "" {
		t.Fatalf("fallback done line = %+v, want local token and no resume_addr", done)
	}
	if got := scrapeMetric(t, tsB.URL, "satserved_handoff_rejected_total"); got < 1 {
		t.Fatalf("peer's handoff_rejected_total = %v, want >= 1", got)
	}
	// The local token resumes on A itself (drain only stops new streams,
	// not token redemption on the next process; here A is still up but its
	// draining flag rejects /v1/sample — so verify the spool holds it).
	if n := srvA.spool.Stats().Entries; n < 1 {
		t.Fatal("checkpoint did not land in the local spool")
	}
}

// TestAdoptRejectsDamagedEnvelope: /v1/adopt validates envelopes like any
// resume token — a corrupt body is a clean 400 plus a rejection count, not
// a spooled time bomb.
func TestAdoptRejectsDamagedEnvelope(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/adopt", "application/octet-stream",
		strings.NewReader("GDSCnot really a checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("adopt of garbage: status %d, want 400", resp.StatusCode)
	}
	if got := scrapeMetric(t, ts.URL, "satserved_handoff_rejected_total"); got < 1 {
		t.Fatalf("handoff_rejected_total = %v, want >= 1", got)
	}
}

func mustPlan(t *testing.T, s string) faultinject.Plan {
	t.Helper()
	p, err := faultinject.ParsePlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
