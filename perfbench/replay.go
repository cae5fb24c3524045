package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/sampling"
	"repro/internal/sat"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tensor"
)

// The traced run times calls into each layer's public functions from the
// benchmark's own code. Where the program hides a call (the server runs
// the compile tier and the sampling session inside a request), the traced
// run replays the same inputs through the same public functions.

// precheckConflicts is the conflict bound of the server's
// UNSAT-under-assumptions precheck, which the replay repeats.
const precheckConflicts = 20000

// attributionLimit is how far the layer spans may miss the time they
// should explain before the traced run fails.
const attributionLimit = 10.0 // percent

// attribution checks that the layer spans of an operation kind explain
// its time as measured independently of them — by the untraced pass
// offline, by the client when serving — and reports the unexplained share
// as trace.unexplained_pct. The share is negative when the spans add up
// to more than the measured time.
func attribution(r *report, kind string, measured, explained time.Duration) {
	share := 100 * float64(measured-explained) / float64(measured)
	if math.Abs(share) > attributionLimit {
		r.fail("attribution: layer spans leave %.1f%% of %s time unexplained (limit ±%.0f%%)", share, kind, attributionLimit)
	}
	r.set("trace.unexplained_pct", "%", share)
	r.note("trace.unexplained_pct", "%s: measured %.1f ms, layer spans %.1f ms", kind, ms(measured), ms(explained))
}

// setCore reports the core sampler's per-layer metrics over n operations.
func setCore(r *report, c coreCounts, s streamSpans, n int) {
	r.set("sampling.new_session_ms", "ms", ms(s.newSession)/float64(n))
	r.set("core.tick_ms", "ms", ms(s.tick)/float64(n))
	r.note("core.tick_ms", "ContinuousStep time per operation")
	r.set("core.expand_ms", "ms", ms(s.expand)/float64(n))
	r.note("core.expand_ms", "FullAssignmentAt time per operation")
	r.set("core.expand_us_per_solution", "us", ms(s.expand)*1000/float64(c.Delivered))
	r.set("core.ticks", "count", float64(c.Ticks))
	r.set("core.iterations", "count", float64(c.Iterations))
	r.set("core.candidates", "count", float64(c.Candidates))
	r.set("core.retired", "count", float64(c.Retired))
	r.set("core.stalled", "count", float64(c.Stalled))
	r.set("core.retire_ratio", "ratio", float64(c.Retired)/float64(c.Candidates))
	r.set("core.iters_per_solution", "ratio", float64(c.Iterations)/float64(c.Delivered))
	r.note("core.iters_per_solution", "batch GD iterations per delivered solution")
	r.set("core.row_iters_per_retired", "ratio", float64(s.rowIters)/float64(c.Retired))
	r.note("core.row_iters_per_retired", "GD row-steps per retired row")
	r.set("core.overshoot", "count", float64(c.Overshoot))
	r.set("bench.delivered", "count", float64(c.Delivered))
	r.set("bench.ops", "count", float64(n))
}

// setSampling reports the compiler-cache deltas over n operations.
func setSampling(r *report, d sampling.CompilerStats, n int) {
	r.set("sampling.hits", "count", float64(d.Hits))
	r.set("sampling.misses", "count", float64(d.Misses))
	r.set("sampling.disk_hits", "count", float64(d.DiskHits))
	r.set("sampling.miss_share", "ratio", float64(d.Misses)/float64(n))
	r.set("sampling.disk_hit_share", "ratio", float64(d.DiskHits)/float64(n))
}

func statsAdd(a, b sampling.CompilerStats) sampling.CompilerStats {
	return sampling.CompilerStats{
		Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses, Evictions: a.Evictions + b.Evictions,
		DiskHits: a.DiskHits + b.DiskHits, DiskMisses: a.DiskMisses + b.DiskMisses,
		DiskBytes: a.DiskBytes + b.DiskBytes,
	}
}

func statsDelta(a, b sampling.CompilerStats) sampling.CompilerStats {
	return sampling.CompilerStats{
		Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses, Evictions: b.Evictions - a.Evictions,
		DiskHits: b.DiskHits - a.DiskHits, DiskMisses: b.DiskMisses - a.DiskMisses,
		DiskBytes: b.DiskBytes - a.DiskBytes,
	}
}

// setServer splits each successful request into client-side spans that
// add up to it: admit (send to meta line, less the queue wait), queue
// (the meta line's queue_ms), first solution (meta to first solution)
// and stream (first solution to done line).
func setServer(r *report, resps []response) {
	var admit, queue, first, stream time.Duration
	n, sols, bytes, refused := 0, 0, 0, 0
	for _, res := range resps {
		if res.status == 429 || res.status == 503 {
			refused++
		}
		if !res.ok {
			continue
		}
		n++
		admit += res.toMeta - res.queue
		queue += res.queue
		first += res.toFirst - res.toMeta
		stream += res.toDone - res.toFirst
		sols += res.sols
		bytes += res.bytes
	}
	if n == 0 {
		r.fail("no successful request to split into spans")
		return
	}
	per := func(d time.Duration) float64 { return ms(d) / float64(n) }
	r.set("server.admit_ms", "ms", per(admit))
	r.set("server.queue_ms", "ms", per(queue))
	r.set("server.first_solution_ms", "ms", per(first))
	r.set("server.stream_ms", "ms", per(stream))
	r.set("server.bytes_per_solution", "B", float64(bytes)/float64(sols))
	r.set("server.refused", "count", float64(refused))
	r.note("server.admit_ms", "mean of %d requests", n)
}

// replayBody is one formula of a workload as the program received it.
type replayBody struct {
	body string
	form *cnf.Formula
}

// compileReplay runs posted bodies and pin sets through the compile
// tier's public functions in the order the server runs them, over a store
// of its own, and sums each layer's time and calls.
type compileReplay struct {
	st    *store.Store
	probs map[int]*core.Problem // compiled problems, by body
	t     tally

	parse, hash, transform, compile, encode, put, get, decode time.Duration
	specialize, precheck                                      time.Duration
	posts, colds, warms, pinSets                              int
	blobBytes, opsCNF, opsCircuit                             int
}

func newCompileReplay(dir string) (*compileReplay, error) {
	st, err := store.Open(filepath.Join(dir, "replay-store"), 0, discardLog)
	if err != nil {
		return nil, err
	}
	return &compileReplay{st: st, probs: map[int]*core.Problem{}}, nil
}

// spent is the time of every layer so far.
func (c *compileReplay) spent() time.Duration {
	return c.parse + c.hash + c.transform + c.compile + c.encode + c.put + c.get + c.decode +
		c.specialize + c.precheck
}

// timed adds f's run time to *d.
func timed(d *time.Duration, f func() error) error {
	t0 := time.Now()
	err := f()
	*d += time.Since(t0)
	return err
}

// post replays a POST of body k: parse and two hashes (the server's cache
// probe and Compiler.Compile each hash the formula), then the first time
// extract, compile, encode and store put, and every later time store get
// and decode, as on a server whose memory cache has evicted the problem
// in between. It returns the time these layers took.
func (c *compileReplay) post(k int, body string) (time.Duration, error) {
	before := c.spent()
	c.t.attempted++
	err := c.postLayers(k, body)
	if err != nil {
		c.t.failed++
	}
	return c.spent() - before, err
}

func (c *compileReplay) postLayers(k int, body string) error {
	var f *cnf.Formula
	err := timed(&c.parse, func() (err error) {
		f, err = cnf.ParseDIMACSLimits(strings.NewReader(body), cnf.DefaultParseLimits())
		return err
	})
	if err != nil {
		return err
	}
	c.posts++
	for range 2 {
		timed(&c.hash, func() error { sampling.HashFormula(f); return nil })
	}
	var blob []byte
	if cp := c.probs[k]; cp != nil {
		c.warms++
		err := timed(&c.get, func() error {
			var ok bool
			if blob, ok = c.st.Get(cp.Key()); !ok {
				return fmt.Errorf("store lost %s", cp.Key())
			}
			return nil
		})
		var dp *core.Problem
		if err == nil {
			err = timed(&c.decode, func() (err error) { dp, err = core.DecodeProblem(blob); return err })
		}
		if err == nil && dp.Key() != cp.Key() {
			err = fmt.Errorf("decoded key %s, compiled %s", dp.Key(), cp.Key())
		}
		return err
	}
	var ext *extract.Result
	var cp *core.Problem
	err = timed(&c.transform, func() (err error) { ext, err = extract.Transform(f); return err })
	if err == nil {
		err = timed(&c.compile, func() (err error) { cp, err = core.Compile(f, ext); return err })
	}
	if err == nil {
		err = timed(&c.encode, func() (err error) { blob, err = cp.MarshalBinary(); return err })
	}
	if err == nil {
		err = timed(&c.put, func() error { return c.st.Put(cp.Key(), blob) })
	}
	if err != nil {
		return err
	}
	c.probs[k] = cp
	c.colds++
	c.blobBytes += len(blob)
	c.opsCNF += f.OpCount2()
	c.opsCircuit += ext.Circuit.OpCount2()
	return nil
}

// pin replays a request's pin set on body k's problem, which post has
// compiled: core.Specialize and the server's conflict-bounded SAT
// precheck on the formula f. It returns the time both took.
func (c *compileReplay) pin(k int, f *cnf.Formula, pins []cnf.Lit) (time.Duration, error) {
	before := c.spent()
	c.t.attempted++
	c.pinSets++
	err := timed(&c.specialize, func() error { _, err := core.Specialize(c.probs[k], pins); return err })
	var status sat.Status
	timed(&c.precheck, func() error {
		status = sat.NewSolver(f, sat.Options{MaxConflicts: precheckConflicts}).SolveAssume(pins...)
		return nil
	})
	if err == nil && status == sat.Unsat {
		err = fmt.Errorf("precheck: unsatisfiable under %v", pins)
	}
	if err != nil {
		c.t.failed++
	}
	return c.spent() - before, err
}

// drawPins replays one pin set per compiled body, drawn from a model, for
// workloads whose requests carry none, so every workload reports every
// layer.
func (c *compileReplay) drawPins(r *report, seed int64, bodies map[int]*cnf.Formula) {
	for k, f := range bodies {
		cp := c.probs[k]
		if cp == nil {
			continue
		}
		model := modelOf(f)
		if model == nil {
			r.fail("compile replay: no model of body %d", k)
			continue
		}
		rng := rand.New(rand.NewSource(mix(seed, 9, k)))
		if _, err := c.pin(k, f, modelPins(model, cp.Extraction().PrimaryInputs, 3, rng.Intn)); err != nil {
			r.fail("specialize replay: %v", err)
		}
	}
}

// report sets the compile tier's per-layer metrics, each the mean time of
// one call of its layer.
func (c *compileReplay) report(r *report) {
	per := func(d time.Duration, calls int) float64 { return ms(d) / float64(max(calls, 1)) }
	r.set("cnf.parse_ms", "ms", per(c.parse, c.posts))
	r.note("cnf.parse_ms", "mean of %d posts, %d cold", c.posts, c.colds)
	r.set("sampling.hash_ms", "ms", per(c.hash, 2*c.posts))
	r.set("extract.transform_ms", "ms", per(c.transform, c.colds))
	r.set("extract.ops_reduction", "ratio", float64(c.opsCNF)/float64(max(c.opsCircuit, 1)))
	r.set("core.compile_ms", "ms", per(c.compile, c.colds))
	r.set("core.encode_ms", "ms", per(c.encode, c.colds))
	r.set("core.blob_kb", "KiB", float64(c.blobBytes)/1024/float64(max(c.colds, 1)))
	r.set("store.put_ms", "ms", per(c.put, c.colds))
	r.set("store.get_ms", "ms", per(c.get, c.warms))
	r.set("core.decode_ms", "ms", per(c.decode, c.warms))
	r.set("core.specialize_ms", "ms", per(c.specialize, c.pinSets))
	r.set("sat.precheck_ms", "ms", per(c.precheck, c.pinSets))
	r.note("core.specialize_ms", "mean of %d pin sets", c.pinSets)
}

// replayCompile posts every body twice — cold, then after eviction — and
// replays one pin set per body drawn from a model.
func replayCompile(r *report, cfg runConfig, bodies []replayBody) tally {
	c, err := newCompileReplay(cfg.dir)
	if err != nil {
		r.fail("replay store: %v", err)
		return tally{attempted: 1, failed: 1}
	}
	forms := map[int]*cnf.Formula{}
	for k, b := range bodies {
		forms[k] = b.form
		for range 2 {
			if _, err := c.post(k, b.body); err != nil {
				r.fail("compile replay: %v", err)
			}
		}
	}
	c.drawPins(r, cfg.seed, forms)
	c.report(r)
	return c.t
}

// replayServe serves the offline instances by key through an in-process
// server — two requests per instance per connection — so the offline
// workloads report the serving path's spans on their own inputs.
func replayServe(r *report, cfg runConfig, insts []*instance) tally {
	ls := startServer(server.Config{})
	defer ls.close()
	env := &serveEnv{ls: ls, formula: func(prob int) *cnf.Formula { return insts[prob].form }}
	for _, in := range insts {
		p, err := ls.srv.Compiler().Compile(in.form)
		if err != nil {
			r.fail("serve replay: %v", err)
			return tally{attempted: 1, failed: 1}
		}
		env.keys = append(env.keys, p.Key())
	}
	for k := 0; k < 2*maxClients*len(insts); k++ {
		i := k % len(insts)
		q := request{prob: i, target: insts[i].target, seed: mix(cfg.seed, 10, k)}
		q.query = url.Values{"key": {env.keys[i]}}
		env.reqs = append(env.reqs, q.withParams())
	}
	resps, _ := closedLoop(ls.ts.URL, maxClients, env.reqs, len(env.reqs), time.Time{})
	t := env.verify(resps)
	setServer(r, resps)
	si := newStandIn()
	defer si.close()
	var transport time.Duration
	n := 0
	for i, res := range resps {
		if res.ok {
			transport += si.replay(env.reqs[i], res)
			n++
		}
	}
	setTransport(r, transport, n)
	return t
}

// setTransport reports the mean HTTP and NDJSON time of n requests.
func setTransport(r *report, total time.Duration, n int) {
	r.set("server.transport_ms", "ms", ms(total)/float64(max(n, 1)))
	r.note("server.transport_ms", "HTTP and NDJSON time per request, %d requests", n)
}

// replaySessions re-runs every successful request's session with
// replaySession and returns the sessions' summed counts.
func replaySessions(r *report, env *serveEnv, resps []response) (counts coreCounts) {
	for i, res := range resps {
		if !res.ok {
			continue
		}
		out, err := replaySession(env, env.reqs[i], res)
		if err != nil {
			r.fail("session replay: request %d: %v", i, err)
			continue
		}
		counts.add(out.counts)
	}
	return counts
}

// replaySession re-runs a request's session — same problem, batch, seed,
// projection and target — with the traced stream driver, and checks that
// it delivers exactly the solutions the server streamed.
func replaySession(env *serveEnv, q request, res response) (streamOut, error) {
	comp := env.ls.srv.Compiler()
	var p *sampling.Problem
	var ok bool
	var err error
	if len(q.pins) > 0 {
		p, ok, err = comp.LookupAssume(env.keys[q.prob], q.pins)
	} else {
		p, ok = comp.Lookup(res.key)
	}
	if err != nil || !ok {
		return streamOut{}, fmt.Errorf("problem %s not found (%v)", res.key, err)
	}
	out, err := streamTraced(p, sampling.SessionConfig{
		BatchSize: res.batch, Seed: q.seed, Device: tensor.Sequential(), Projection: q.proj,
	}, q.target)
	if err != nil {
		return out, err
	}
	for k, sol := range out.found {
		if k >= len(res.assigns) || bitString(sol) != res.assigns[k] {
			return out, fmt.Errorf("diverged from the served stream at solution %d", k)
		}
	}
	return out, nil
}

// standIn is a loopback HTTP server that reads a request's body and
// writes back the lines the real server streamed for it, flushing each as
// the server does. Re-sending a request to it times the request's HTTP
// and NDJSON share.
type standIn struct {
	ts   *httptest.Server
	tr   *http.Transport
	hc   *http.Client
	next chan response // the response the handler plays back next
}

func newStandIn() *standIn {
	type metaLine struct {
		Type  string `json:"type"`
		Key   string `json:"key"`
		Batch int    `json:"batch"`
	}
	type solutionLine struct {
		Type       string `json:"type"`
		Assignment string `json:"assignment"`
	}
	type doneLine struct {
		Type string `json:"type"`
	}
	s := &standIn{next: make(chan response, 1), tr: &http.Transport{DisableCompression: true}}
	s.hc = &http.Client{Transport: s.tr}
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		res := <-s.next
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher := w.(http.Flusher)
		enc := json.NewEncoder(w)
		line := func(v any) {
			enc.Encode(v)
			flusher.Flush()
		}
		line(metaLine{"meta", res.key, res.batch})
		for _, a := range res.assigns {
			line(solutionLine{"solution", a})
		}
		line(doneLine{"done"})
	}))
	return s
}

// replay re-sends request q, played back as res, and returns its
// send-to-done time.
func (s *standIn) replay(q request, res response) time.Duration {
	s.next <- res
	return send(context.Background(), s.hc, s.ts.URL, q).toDone
}

func (s *standIn) close() {
	s.tr.CloseIdleConnections()
	s.ts.Close()
}

func intList[T ~int](xs []T) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.Itoa(int(x))
	}
	return strings.Join(s, ",")
}
