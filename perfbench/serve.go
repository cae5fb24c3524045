package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchgen"
	"repro/internal/cnf"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tensor"
)

// maxClients is the most closed-loop connections a workload opens: one
// per CPU of the reference host.
const maxClients = 2

// discardLog silences the server's and the store's structured logs.
var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// liveServer is an in-process satserved listening on a loopback port.
type liveServer struct {
	srv *server.Server
	ts  *httptest.Server
}

// startServer starts a server with one worker slot, so that with two
// clients one request is usually queued, and a tensor device of one
// worker: on a two-CPU host the running session keeps one CPU and the
// queued request's HTTP, lookup and specialize work the other, so neither
// slows the other down.
func startServer(cfg server.Config) *liveServer {
	cfg.Workers = 1
	cfg.Device = tensor.Sequential()
	cfg.Log = discardLog
	srv := server.New(cfg)
	return &liveServer{srv: srv, ts: httptest.NewServer(srv.Handler())}
}

// close waits for the outstanding requests and stops the server.
func (l *liveServer) close() {
	l.ts.Close()
	l.srv.Close()
}

// request is one sampling request of a served workload.
type request struct {
	prob   int        // index of the formula the request samples
	query  url.Values // target, seed, and key/assume/project as the kind needs
	body   []byte     // DIMACS body; nil for a request by key
	target int
	seed   int64
	pins   []cnf.Lit
	proj   []int
}

// response is what the client saw of one request, timed at the moments
// its lines arrived.
type response struct {
	op
	end                     time.Duration // done line's arrival, from the loop's start
	status                  int
	key                     string
	batch                   int
	queue                   time.Duration // the meta line's queue_ms
	toMeta, toFirst, toDone time.Duration // from send
	bytes                   int
	assigns                 []string // the solution lines' assignments
	timeout, done           bool
	err                     error
}

// streamLine is the union of the NDJSON line types the client reads.
type streamLine struct {
	Type       string  `json:"type"`
	Key        string  `json:"key"`
	Batch      int     `json:"batch"`
	QueueMS    float64 `json:"queue_ms"`
	Assignment string  `json:"assignment"`
	Timeout    bool    `json:"timeout"`
	Drained    bool    `json:"drained"`
}

// send posts one request and reads its stream to the end.
func send(ctx context.Context, hc *http.Client, base string, q request) response {
	var res response
	var body io.Reader = http.NoBody
	if q.body != nil {
		body = bytes.NewReader(q.body)
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sample?"+q.query.Encode(), body)
	if err != nil {
		res.err = err
		return res
	}
	resp, err := hc.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		res.err = fmt.Errorf("status %d", resp.StatusCode)
		return res
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) > 0 {
			at := time.Since(t0)
			res.bytes += len(line)
			var l streamLine
			if err := json.Unmarshal(line, &l); err != nil {
				res.err = fmt.Errorf("bad stream line: %v", err)
				break
			}
			switch l.Type {
			case "meta":
				res.toMeta, res.key, res.batch = at, l.Key, l.Batch
				res.queue = time.Duration(l.QueueMS * float64(time.Millisecond))
			case "solution":
				if len(res.assigns) == 0 {
					res.toFirst = at
				}
				res.assigns = append(res.assigns, l.Assignment)
			case "done":
				res.toDone, res.done = at, true
				res.timeout = l.Timeout || l.Drained
			}
		}
		if rerr != nil {
			if rerr != io.EOF {
				res.err = rerr
			}
			break
		}
	}
	res.wall, res.ttfs, res.sols = res.toDone, res.toFirst, len(res.assigns)
	return res
}

// withParams adds what every request carries to its query: its target,
// its pinned seed, a deadline, and its pins and projection if any.
func (q request) withParams() request {
	if q.query == nil {
		q.query = url.Values{}
	}
	q.query.Set("target", strconv.Itoa(q.target))
	q.query.Set("seed", strconv.FormatInt(q.seed, 10))
	q.query.Set("timeout", "60s")
	if len(q.pins) > 0 {
		q.query.Set("assume", intList(q.pins))
	}
	if len(q.proj) > 0 {
		q.query.Set("project", intList(q.proj))
	}
	return q
}

// closedLoop sends reqs[0:limit] over `clients` connections, each sending
// its next request when its previous one's done line has arrived, and
// stops issuing at the deadline (zero: never). It returns the responses
// of the requests sent, which are always a prefix of reqs, and the wall
// time from the first send to the last done line.
func closedLoop(base string, clients int, reqs []request, limit int, deadline time.Time) ([]response, time.Duration) {
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	out := make([]response, limit)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for deadline.IsZero() || time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= limit {
					return
				}
				out[i] = send(ctx, hc, base, reqs[i])
				out[i].end = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out[:min(int(next.Load()), limit)], time.Since(start)
}

// serveEnv is a running server with the formulas its requests sample and
// the prepared requests.
type serveEnv struct {
	ls       *liveServer
	formula  func(prob int) *cnf.Formula // verification reference of request.prob
	bodies   [][]byte                    // DIMACS bodies, by request.prob
	keys     []string                    // problem keys of requests by key, by request.prob
	reqs     []request
	storeDir string
}

func (e *serveEnv) close() {
	if e == nil {
		return
	}
	if e.ls != nil {
		e.ls.close()
	}
	if e.storeDir != "" {
		os.RemoveAll(e.storeDir)
	}
}

// verify checks every response against its request and marks it ok: a
// 200 stream closed by a done line, not cut short, delivering exactly its
// target of valid, distinct solutions. It runs after the requests, outside
// the timed region, one formula at a time.
func (e *serveEnv) verify(resps []response) tally {
	byProb := map[int][]int{}
	for i := range resps {
		byProb[e.reqs[i].prob] = append(byProb[e.reqs[i].prob], i)
	}
	var t tally
	for prob, idx := range byProb {
		f := e.formula(prob)
		for _, i := range idx {
			res, q := &resps[i], e.reqs[i]
			t.attempted++
			res.ok = res.err == nil && res.done && !res.timeout && res.sols == q.target
			if res.ok {
				sols := make([][]bool, len(res.assigns))
				for k, a := range res.assigns {
					sols[k], _ = parseBits(a)
				}
				res.ok = badSolutions(f, q.proj, q.pins, sols) == 0
			}
			if !res.ok {
				t.failed++
			}
		}
	}
	return t
}

// serveSpec is a served workload: closed-loop requests against an
// in-process server, all prepared from the seed during set-up.
type serveSpec struct {
	clients int // closed-loop connections
	// perSecond is how many requests set-up prepares per measured second:
	// more than the workload completes, so the deadline ends the run.
	perSecond int
	// passPerSecond sizes each pass of the traced run, in requests per
	// measured second.
	passPerSecond int
	setup         func(seed int64, n int, dir string) (*serveEnv, error)
	check         func(r *report, resps []response, d sampling.CompilerStats)
}

func serveWorkload(s serveSpec) workload {
	return workload{
		e2e: func(cfg runConfig, r *report) tally {
			n := int(cfg.seconds.Seconds() * float64(s.perSecond))
			env, setup, err := repeatSetup(func() (*serveEnv, error) { return s.setup(cfg.seed, n, cfg.dir) }, (*serveEnv).close)
			defer env.close()
			if err != nil {
				r.fail("setup: %v", err)
				return tally{attempted: 1, failed: 1}
			}
			resps, wall := closedLoop(env.ls.ts.URL, s.clients, env.reqs, n, time.Now().Add(cfg.seconds))
			t := env.verify(resps)
			ops := make([]op, len(resps))
			// A request counts toward each one-second window in the share
			// of its send-to-done time that falls into the window, so a
			// window's count is not rounded to whole requests.
			windows := make([]window, int(wall/time.Second))
			for i, res := range resps {
				ops[i] = res.op
				if !res.ok {
					continue
				}
				for k := range windows {
					lo, hi := time.Duration(k)*time.Second, time.Duration(k+1)*time.Second
					if in := min(hi, res.end) - max(lo, res.end-res.wall); in > 0 {
						share := float64(in) / float64(res.wall)
						windows[k].ops += share
						windows[k].sols += share * float64(res.sols)
					}
				}
			}
			for k := range windows {
				windows[k].span = time.Second
			}
			setE2E(r, ops, 1, windows, setup, t)
			if len(resps) == n {
				r.note("ops_per_s", "all %d prepared requests ran before the deadline", n)
			}
			return t
		},
		trace: s.trace,
	}
}

// trace serves the same fixed request list twice, each time on a fresh
// set-up. The first pass runs the workload's closed loop untraced and
// gives the client spans, the compiler deltas and the self-checks. The
// second sends the requests one at a time and follows each at once with a
// replay of every layer it ran through — its compile-tier path, pins,
// session and transport — which together must explain the request's time
// outside the admission queue. Replaying right after each request keeps a
// change of host speed during the run out of the comparison, and one
// request at a time keeps contention between connections out of it. The
// two passes must agree exactly on the compiler deltas and on the
// replayed sessions' core counts.
func (s serveSpec) trace(cfg runConfig, r *report) tally {
	n := max(3*s.clients, int(cfg.seconds.Seconds()*float64(s.passPerSecond)))
	var t tally
	env, err := s.setup(cfg.seed, n, cfg.dir)
	if err != nil {
		env.close()
		r.fail("setup: %v", err)
		return tally{attempted: 1, failed: 1}
	}
	before := env.ls.srv.Compiler().Stats()
	resps, _ := closedLoop(env.ls.ts.URL, s.clients, env.reqs, n, time.Time{})
	d := statsDelta(before, env.ls.srv.Compiler().Stats())
	t.add(env.verify(resps))
	counts := replaySessions(r, env, resps)
	env.close()
	setServer(r, resps)
	setSampling(r, d, len(resps))
	s.check(r, resps, d)

	env, err = s.setup(cfg.seed, n, cfg.dir)
	defer env.close()
	if err != nil {
		r.fail("setup: %v", err)
		return tally{attempted: 1, failed: 1}
	}
	tp, err := tracedRequests(r, cfg, env)
	if err != nil {
		r.fail("traced pass: %v", err)
		return tally{attempted: 1, failed: 1}
	}
	t.add(tp.t)
	if tp.d.Hits != d.Hits || tp.d.Misses != d.Misses || tp.d.DiskHits != d.DiskHits ||
		tp.d.DiskMisses != d.DiskMisses || tp.counts != counts {
		r.fail("exact counts differ between two passes of seed %d: %+v %+v vs %+v %+v",
			cfg.seed, d, counts, tp.d, tp.counts)
	}
	if tp.n == 0 {
		r.fail("no session to replay")
		return t
	}
	setCore(r, tp.counts, tp.spans, tp.n)
	setTransport(r, tp.transport, tp.n)
	attribution(r, "request", tp.measured, tp.explained)
	untraced := outsideQueue(resps)
	r.set("trace.overhead_pct", "%", 100*(tp.measured.Seconds()/float64(tp.n)-untraced)/untraced)
	r.note("trace.overhead_pct", "request time outside the queue: closed loop %.2f ms, traced pass %.2f ms",
		1000*untraced, ms(tp.measured)/float64(tp.n))
	return t
}

// outsideQueue is the mean time in seconds the successful requests spent
// outside the admission queue.
func outsideQueue(resps []response) float64 {
	var sum time.Duration
	n := 0
	for _, res := range resps {
		if res.ok {
			sum += res.wall - res.queue
			n++
		}
	}
	return sum.Seconds() / float64(max(n, 1))
}

// tracedPass is the outcome of tracedRequests.
type tracedPass struct {
	t                   tally
	d                   sampling.CompilerStats
	counts              coreCounts
	spans               streamSpans
	n                   int // successful requests, each replayed
	measured, explained time.Duration
	transport           time.Duration // of the explained time
}

// tracedRequests sends env's requests one at a time, and after each
// replays the layers it ran through: a posted body's compile-tier path,
// its pins' specialize and precheck, its session, and its HTTP exchange.
// It reports the compile tier's per-layer metrics and sums each
// successful request's time outside the queue (measured) and its replayed
// layers (explained).
func tracedRequests(r *report, cfg runConfig, env *serveEnv) (tracedPass, error) {
	var p tracedPass
	c, err := newCompileReplay(cfg.dir)
	if err != nil {
		return p, err
	}
	si := newStandIn()
	defer si.close()
	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	comp := env.ls.srv.Compiler()
	forms := map[int]*cnf.Formula{}
	formula := func(prob int) *cnf.Formula {
		if forms[prob] == nil {
			forms[prob] = env.formula(prob)
		}
		return forms[prob]
	}
	// Requests by key post no body. Their formulas are posted in the
	// replay, cold and warm, for the compile-tier metrics and for the
	// pins to specialize.
	if env.reqs[0].body == nil {
		for prob, body := range env.bodies {
			for range 2 {
				if _, err := c.post(prob, string(body)); err != nil {
					r.fail("compile replay: %v", err)
				}
			}
		}
	}
	resps := make([]response, len(env.reqs))
	outs := make([]streamOut, len(env.reqs))
	layers := make([]time.Duration, len(env.reqs))
	transport := make([]time.Duration, len(env.reqs))
	for i, q := range env.reqs {
		// The compiler deltas count the requests only, not the replay's
		// lookups of their problems.
		before := comp.Stats()
		resps[i] = send(context.Background(), hc, env.ls.ts.URL, q)
		p.d = statsAdd(p.d, statsDelta(before, comp.Stats()))
		if resps[i].err != nil || !resps[i].done {
			continue
		}
		if q.body != nil {
			d, err := c.post(q.prob, string(q.body))
			if err != nil {
				r.fail("compile replay: request %d: %v", i, err)
			}
			layers[i] += d
		}
		if len(q.pins) > 0 {
			d, err := c.pin(q.prob, formula(q.prob), q.pins)
			if err != nil {
				r.fail("specialize replay: request %d: %v", i, err)
			}
			layers[i] += d
		}
		out, err := replaySession(env, q, resps[i])
		if err != nil {
			r.fail("session replay: request %d: %v", i, err)
		}
		outs[i] = out
		transport[i] = si.replay(q, resps[i])
		layers[i] += out.spans.newSession + out.spans.tick + out.spans.expand + transport[i]
	}
	p.t = env.verify(resps)
	p.t.add(c.t)
	for i, res := range resps {
		if !res.ok {
			continue
		}
		p.measured += res.wall - res.queue
		p.explained += layers[i]
		p.transport += transport[i]
		p.counts.add(outs[i].counts)
		p.spans.add(outs[i].spans)
		p.n++
	}
	if c.pinSets == 0 {
		for prob := range c.probs {
			formula(prob)
		}
		c.drawPins(r, cfg.seed, forms)
	}
	c.report(r)
	return p, nil
}

// Request mix of serve-warm: in every block of 20 requests, 5 carry
// assumption pins and 3 a projection.
const (
	warmBlock    = 20
	warmAssume   = 5
	warmProject  = 3
	warmProblems = 4
	warmTarget   = 16
)

// serveWarm sends requests by key over problems compiled during set-up:
// most plain, a minority with ?project=, and a minority with ?assume=
// pins drawn fresh per request from a model, so core.Specialize and the
// SAT precheck run on the request path. Nothing compiles after set-up.
// The problems come from fixed generator seeds; the workload seed draws
// the request mix, the pins and every request's session seed.
var serveWarm = serveSpec{
	clients:       maxClients,
	perSecond:     400,
	passPerSecond: 30,
	setup:         setupWarm,
	check: func(r *report, resps []response, d sampling.CompilerStats) {
		if d.Misses != 0 {
			r.fail("serve-warm: %d compile misses after set-up, want 0", d.Misses)
		}
		var queued time.Duration
		for _, res := range resps {
			queued += res.queue
		}
		if queued <= 0 {
			r.fail("serve-warm: no request waited in the admission queue")
		}
	},
}

func setupWarm(seed int64, n int, _ string) (*serveEnv, error) {
	ls := startServer(server.Config{})
	var forms []*cnf.Formula
	env := &serveEnv{ls: ls, formula: func(prob int) *cnf.Formula { return forms[prob] }}
	models := make([][]bool, warmProblems)
	inputs := make([][]int, warmProblems)
	for i := range warmProblems {
		in := benchgen.OrChain(fmt.Sprintf("warm-%d", i), 80, 8, int64(3001+i))
		body := in.Formula.DIMACSString()
		f, err := cnf.ParseDIMACSString(body)
		if err != nil {
			return env, err
		}
		p, err := ls.srv.Compiler().Compile(f)
		if err != nil {
			return env, err
		}
		if models[i] = modelOf(f); models[i] == nil {
			return env, fmt.Errorf("%s: no model", in.Name)
		}
		inputs[i] = p.Extraction().PrimaryInputs
		forms = append(forms, f)
		env.bodies = append(env.bodies, []byte(body))
		env.keys = append(env.keys, p.Key())
	}
	// Every block of warmBlock requests holds the same mix — each problem
	// equally often, warmAssume requests with pins, warmProject projected —
	// in an order shuffled from the seed, so runs with different seeds
	// differ in order, pins and session seeds but not in proportions.
	kinds := make([]int, warmBlock)
	for k := range kinds {
		kinds[k] = k
	}
	seen := map[string]bool{}
	for i := range n {
		if i%warmBlock == 0 {
			rand.New(rand.NewSource(mix(seed, 4, i))).Shuffle(warmBlock, func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		}
		k := kinds[i%warmBlock]
		rng := rand.New(rand.NewSource(mix(seed, 5, i)))
		q := request{prob: k % warmProblems, target: warmTarget, seed: mix(seed, 6, i)}
		q.query = url.Values{"key": {env.keys[q.prob]}}
		switch {
		case k < warmAssume:
			for {
				q.pins = modelPins(models[q.prob], inputs[q.prob], 3, rng.Intn)
				id := fmt.Sprint(q.prob, q.pins)
				if !seen[id] {
					seen[id] = true
					break
				}
			}
		case k < warmAssume+warmProject:
			q.proj = inputs[q.prob][:len(inputs[q.prob])/2]
		}
		env.reqs = append(env.reqs, q.withParams())
	}
	return env, nil
}

// Shape of serve-cold.
const (
	coldLRU    = 2 // compiler memory entries; far fewer than the formulas
	coldLag    = 3 // blocks between a formula's posts
	coldTarget = 8
)

// serveCold posts DIMACS bodies of distinct generated formulas to a
// server whose memory LRU is far smaller than the formula pool, over a
// throwaway store. Block t of the request list posts formula t cold
// (parse, extract, compile, encode, store put) and formulas t-3 and t-6
// again after they were evicted (parse, store get, decode), so one
// request in three compiles. The workload seed draws every request's
// session seed. One client sends them one after the other: with two, a
// post would often wait for the other's compile at the server's compile
// gate (one slot per worker slot), a wait no client-side span sees. So
// op_p50_ms is a store-warm request and op_p90_ms a cold one.
var serveCold = serveSpec{
	clients:       1,
	perSecond:     45,
	passPerSecond: 9,
	setup:         setupCold,
	check: func(r *report, resps []response, d sampling.CompilerStats) {
		if d.Misses == 0 || d.DiskHits == 0 {
			r.fail("serve-cold: %d cold compiles and %d disk hits, want both > 0", d.Misses, d.DiskHits)
		}
	},
}

func setupCold(seed int64, n int, dir string) (*serveEnv, error) {
	sdir, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return nil, err
	}
	env := &serveEnv{storeDir: sdir}
	st, err := store.Open(sdir, 0, discardLog)
	if err != nil {
		return env, err
	}
	env.ls = startServer(server.Config{Compiler: sampling.NewCompiler(coldLRU).WithStore(st)})
	// Only the bodies are kept: verification regenerates each formula, so
	// the pool does not weigh on the run's peak memory.
	env.formula = coldFormula
	for t := 0; len(env.reqs) < n; t++ {
		env.bodies = append(env.bodies, []byte(coldFormula(t).DIMACSString()))
		for _, f := range []int{t, t - coldLag, t - 2*coldLag} {
			if f >= 0 && len(env.reqs) < n {
				q := request{prob: f, body: env.bodies[f], target: coldTarget, seed: mix(seed, 7, len(env.reqs))}
				env.reqs = append(env.reqs, q.withParams())
			}
		}
	}
	return env, nil
}

// coldFormula is formula t of serve-cold's pool. The pool comes from fixed
// generator seeds, so that runs with different workload seeds post the
// same formulas in the same order and differ in their session seeds:
// single generated iscas formulas differ in cost by far more than the
// spread the benchmark allows between runs.
func coldFormula(t int) *cnf.Formula {
	return benchgen.Iscas(fmt.Sprintf("cold-%d", t), 120, 1200, 4, int64(6001+t)).Formula
}
