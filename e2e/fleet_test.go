package e2e

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server/client"
)

// startServedWith boots satserved with extra flags on top of the chaos
// tier's defaults.
func startServedWith(t *testing.T, bin, spoolDir string, extra ...string) *servedProc {
	t.Helper()
	dir := t.TempDir()
	portFile := filepath.Join(dir, "addr")
	args := []string{
		"-addr", "127.0.0.1:0",
		"-portfile", portFile,
		"-workers", "2",
		"-devworkers", "2",
		"-draingrace", "500ms",
		"-maxtarget", "1000000",
		"-spool", spoolDir,
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &servedProc{cmd: cmd, exited: make(chan struct{}), err: new(error)}
	go func() { *p.err = cmd.Wait(); close(p.exited) }()
	t.Cleanup(func() {
		select {
		case <-p.exited:
		default:
			cmd.Process.Kill()
			<-p.exited
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
			p.base = "http://" + string(b)
			return p
		}
		if time.Now().After(deadline) {
			t.Fatal("satserved never wrote its port file")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// scrapeE2E reads one counter off a live process's /metrics page.
func scrapeE2E(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.eE+-]+)$`)
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := re.FindSubmatch(b)
	if m == nil {
		t.Fatalf("metric %s not found on %s", name, base)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatalf("metric %s: bad value %q", name, m[1])
	}
	return v
}

// fleetStream is one raw NDJSON sampling stream with its own lifetime.
type fleetStream struct {
	resp   *http.Response
	sc     *bufio.Scanner
	cancel context.CancelFunc
}

func openFleet(t *testing.T, url, body string) *fleetStream {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, rd)
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
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("stream %s: status %d: %s", url, resp.StatusCode, b)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	s := &fleetStream{resp: resp, sc: sc, cancel: cancel}
	t.Cleanup(s.close)
	return s
}

func (s *fleetStream) close() {
	s.cancel()
	s.resp.Body.Close()
}

// readN consumes the stream until n solutions arrived (meta lines skipped).
func (s *fleetStream) readN(t *testing.T, n int) []string {
	t.Helper()
	var sols []string
	for len(sols) < n && s.sc.Scan() {
		var ln chaosLine
		if err := json.Unmarshal(s.sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad line %q: %v", s.sc.Text(), err)
		}
		if ln.Type == "solution" {
			sols = append(sols, ln.Assignment)
		}
	}
	if len(sols) < n {
		t.Fatalf("stream ended after %d/%d solutions: %v", len(sols), n, s.sc.Err())
	}
	return sols
}

// rest drains the stream to its done line.
func (s *fleetStream) rest(t *testing.T) ([]string, chaosLine) {
	t.Helper()
	var sols []string
	var done chaosLine
	got := false
	for s.sc.Scan() {
		var ln chaosLine
		if err := json.Unmarshal(s.sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad line %q: %v", s.sc.Text(), err)
		}
		switch ln.Type {
		case "solution":
			sols = append(sols, ln.Assignment)
		case "done":
			done, got = ln, true
		}
	}
	if err := s.sc.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if !got {
		t.Fatal("stream ended without a done line")
	}
	return sols, done
}

// TestFleetHandoffPreemption is the fleet-level acceptance run: two
// replicas wired as peers, one baseline, and every interruption mode the
// PR adds — admin handoff, SIGTERM drain handoff, replica SIGKILL with
// client-side fleet rotation, and SFQ preemption — each converging to a
// stream solution-for-solution identical to the fault-free run. Along the
// way every new counter (handoff sent/adopted/rejected, preemptions,
// spool corruption) must go non-zero on the replica that owns it.
func TestFleetHandoffPreemption(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries; skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "satserved")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/satserved")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building satserved: %v", err)
	}

	f := smallCNF()
	dimacs := f.DIMACSString()
	const nWant = 60

	// B is the adopter every other replica hands off to.
	srvB := startServedWith(t, bin, t.TempDir())
	// A pushes its parked checkpoints to B.
	srvA := startServedWith(t, bin, t.TempDir(),
		"-peers", srvB.base, "-peerprobe", "100ms")

	// The fault-free differential baseline, straight off B.
	ref := openFleet(t, srvB.base+"/v1/sample?target=0&seed=11&timeout=55s", dimacs)
	want := ref.readN(t, nWant)
	ref.close()
	for _, sol := range want {
		if !verifies(f, sol) {
			t.Fatalf("baseline streamed an unsatisfying assignment: %q", sol)
		}
	}

	// mergeCheck resumes an interrupted stream at the address its done line
	// names, merges, and compares against the fault-free run.
	mergeCheck := func(t *testing.T, sols []string, done chaosLine) {
		t.Helper()
		if done.Resume == "" {
			t.Fatalf("done line carries no resume token: %+v", done)
		}
		if done.ResumeAddr != srvB.base {
			t.Fatalf("resume_addr = %q, want adopter %q", done.ResumeAddr, srvB.base)
		}
		rs := openFleet(t, done.ResumeAddr+"/v1/sample?resume="+done.Resume+"&target=0&timeout=55s", "")
		if need := nWant - len(sols); need > 0 {
			sols = append(sols, rs.readN(t, need)...)
		}
		rs.close()
		for i := 0; i < nWant; i++ {
			if sols[i] != want[i] {
				chaosDiff(t, sols[:nWant], want)
				t.Fatalf("zero-loss violated: merged stream diverges from the fault-free run at solution %d", i)
			}
		}
	}

	// Leg 1: explicit fleet rebalance — POST /v1/handoff parks A's live
	// stream onto B while A keeps serving.
	t.Run("admin-handoff", func(t *testing.T) {
		st := openFleet(t, srvA.base+"/v1/sample?target=0&seed=11&timeout=55s", dimacs)
		sols := st.readN(t, 7)
		resp, err := http.Post(srvA.base+"/v1/handoff", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Signaled int `json:"signaled"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if body.Signaled < 1 {
			t.Fatalf("handoff signalled %d streams, want >= 1", body.Signaled)
		}
		rest, done := st.rest(t)
		mergeCheck(t, append(sols, rest...), done)
		if n := scrapeE2E(t, srvA.base, "satserved_handoff_sent_total"); n < 1 {
			t.Fatalf("satserved_handoff_sent_total = %v on A, want >= 1", n)
		}
		if n := scrapeE2E(t, srvB.base, "satserved_handoff_adopted_total"); n < 1 {
			t.Fatalf("satserved_handoff_adopted_total = %v on B, want >= 1", n)
		}
	})

	// Leg 2: graceful replacement — SIGTERM drains A, whose streams hand
	// off to B instead of parking in A's now-doomed local spool.
	t.Run("sigterm-handoff", func(t *testing.T) {
		st := openFleet(t, srvA.base+"/v1/sample?target=0&seed=11&timeout=55s", dimacs)
		sols := st.readN(t, 5)
		if err := srvA.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		rest, done := st.rest(t)
		srv1WaitExit(t, srvA)
		mergeCheck(t, append(sols, rest...), done)
	})

	// Leg 3: ungraceful death — SIGKILL a replica mid-stream. No drain, no
	// handoff; the client's fleet rotation re-runs the pinned-seed request
	// on B and determinism makes the retry byte-identical, so the caller
	// still converges with zero loss. The replica's own chaos plan kills it
	// right after it writes its 10th solution (killpeer@sol): a kill sent
	// by the client on receiving solution 10 can land after the whole
	// 60-solution stream already sits in the socket buffers.
	t.Run("sigkill-fleet-differential", func(t *testing.T) {
		srvA2 := startServedWith(t, bin, t.TempDir(), "-faultplan", "killpeer@sol=10")
		seed := int64(11)
		cl := client.NewFleet([]string{srvA2.base, srvB.base}, client.Config{
			MaxAttempts: 6,
			BaseBackoff: 50 * time.Millisecond,
			MaxBackoff:  time.Second,
			MaxElapsed:  50 * time.Second,
		})
		ctx, cancel := context.WithTimeout(context.Background(), 55*time.Second)
		defer cancel()
		res, err := cl.Sample(ctx, client.Request{
			DIMACS: dimacs, Target: nWant, Seed: &seed, Timeout: 50 * time.Second,
		})
		if err != nil {
			t.Fatalf("fleet client never converged past the kill: %v", err)
		}
		if res.Retries < 1 {
			t.Fatalf("retries = %d: the kill never forced a rotation", res.Retries)
		}
		select {
		case <-srvA2.exited:
		case <-time.After(10 * time.Second):
			t.Fatal("the replica armed with killpeer@sol=10 is still running")
		}
		if len(res.Solutions) != nWant {
			t.Fatalf("fleet client delivered %d/%d solutions", len(res.Solutions), nWant)
		}
		for i := range res.Solutions {
			if res.Solutions[i] != want[i] {
				chaosDiff(t, res.Solutions, want)
				t.Fatalf("zero-loss violated: fleet retry diverges from the fault-free run at solution %d", i)
			}
		}
	})

	// Leg 4: SFQ preemption fairness on a one-slot replica, with a torn
	// checkpoint planted in its spool to exercise boot quarantine.
	t.Run("preemption-fairness", func(t *testing.T) {
		spoolC := t.TempDir()
		torn := strings.Repeat("ab", 32) + ".ckpt"
		if err := os.WriteFile(filepath.Join(spoolC, torn), []byte("GDSC torn mid-write"), 0o644); err != nil {
			t.Fatal(err)
		}
		srvC := startServedWith(t, bin, spoolC, "-workers", "1", "-preempt", "50ms")
		if n := scrapeE2E(t, srvC.base, "satserved_spool_corrupt_total"); n < 1 {
			t.Fatalf("satserved_spool_corrupt_total = %v, want >= 1 after boot over a torn file", n)
		}
		if _, err := os.Stat(filepath.Join(spoolC, torn+".corrupt")); err != nil {
			t.Fatalf("torn checkpoint was not quarantined: %v", err)
		}

		long := openFleet(t, srvC.base+"/v1/sample?target=0&seed=11&timeout=55s&tenant=long", dimacs)
		sols := long.readN(t, 10)

		// A second tenant starves behind the unbounded stream; preemption
		// must checkpoint the long stream off the only slot so this request
		// finishes well before the long stream would ever let go.
		shortDone := make(chan error, 1)
		go func() {
			resp, err := http.Post(srvC.base+"/v1/sample?target=5&seed=1&tenant=fast", "text/plain", strings.NewReader(dimacs))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = &client.StatusError{Status: resp.StatusCode}
				}
			}
			shortDone <- err
		}()
		select {
		case err := <-shortDone:
			if err != nil {
				t.Fatalf("starved tenant failed: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("starved tenant never completed: preemption did not free the slot")
		}

		// The preempted stream survived on its own connection.
		sols = append(sols, long.readN(t, nWant-len(sols))...)
		long.close()
		for i := 0; i < nWant; i++ {
			if sols[i] != want[i] {
				chaosDiff(t, sols, want)
				t.Fatalf("preempted stream diverges from the fault-free run at solution %d", i)
			}
		}
		if n := scrapeE2E(t, srvC.base, "satserved_preemptions_total"); n < 1 {
			t.Fatalf("satserved_preemptions_total = %v, want >= 1", n)
		}
	})

	// Leg 5: adoption hygiene — a damaged envelope is a clean 400 and a
	// counted rejection, never a spooled time bomb.
	t.Run("adopt-rejects-garbage", func(t *testing.T) {
		resp, err := http.Post(srvB.base+"/v1/adopt", "application/octet-stream",
			strings.NewReader("GDSCnot a checkpoint"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("adopt of garbage: status %d, want 400", resp.StatusCode)
		}
		if n := scrapeE2E(t, srvB.base, "satserved_handoff_rejected_total"); n < 1 {
			t.Fatalf("satserved_handoff_rejected_total = %v, want >= 1", n)
		}
	})

	srvB.term(t)
}

func mustParseFleetPlan(t *testing.T, s string) faultinject.Plan {
	t.Helper()
	p, err := faultinject.ParsePlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
