// Package server implements satserved: a multi-tenant network sampling
// service over the compile cache. Clients POST a DIMACS CNF (or the
// content-hash key of one the server has already compiled) and receive
// verified solutions back as an NDJSON stream.
//
// The service is the amortization argument of the sampling layer lifted to
// the network: N concurrent requests for the same formula compile once
// (sampling.Compiler single-flight + LRU) and stream from independent
// Sessions over the one shared artifact. Around that core sit the pieces a
// multi-tenant deployment needs:
//
//   - a bounded weighted-fair admission queue (per-tenant start-time fair
//     queueing), so one tenant's flood cannot starve the rest. Tenant
//     identity and weight are read from the request (X-Tenant header /
//     query params) and are only meaningful when a trusted edge — reverse
//     proxy, API gateway — sets them after authenticating; a deployment
//     facing anonymous clients should strip them at the edge (every
//     request then shares the "anon" tenant) and rely on the bounded
//     queue, or set MaxWeight to 1 to neutralize client-chosen weights;
//   - admission control driven by queue depth and the compiled memory
//     model: requests that would exceed the aggregate session-memory
//     budget are shed with 429 + Retry-After instead of degrading
//     in-flight streams or OOMing. Pricing lives in core — each request
//     path makes one core.Problem.MemoryEstimate call, which bounds the
//     dedup pool by the request's effective target plus one batch — and
//     "unbounded" requests (target=0) are capped at MaxTarget, so every
//     admitted stream is bounded by construction. Compilation of new
//     formulas — the one memory cost that precedes admission — runs
//     through a gate bounding concurrent compiles (cache hits bypass it);
//   - per-request deadlines and client-disconnect cancellation threaded
//     into Session.Stream;
//   - graceful drain: on SIGTERM the server rejects new work, lets
//     in-flight streams run out a grace period, then cancels them — every
//     stream still ends with a well-formed summary line carrying its
//     partial results;
//   - observability: /healthz, Prometheus-style /metrics (queue depth,
//     active sessions, sol/s, compiler hit/miss/eviction/residency), and
//     structured request logs.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/sampling"
	"repro/internal/sat"
	"repro/internal/server/client"
	"repro/internal/store"
	"repro/internal/tensor"
)

// Config configures a Server. The zero value of every field selects a
// production-sane default.
type Config struct {
	// Compiler is the shared compile cache. Nil builds a fresh one with
	// the default capacity. A durable tier attached with WithStore (point
	// every replica of a fleet at one shared directory and each formula
	// compiles once fleet-wide) reports on /metrics as satserved_store_*.
	Compiler *sampling.Compiler
	// Device executes GD batches (default: all CPUs).
	Device tensor.Device
	// Workers bounds concurrently streaming sessions (default 4). Each
	// session parallelizes internally over Device, so this is a
	// concurrency/latency knob, not a core count.
	Workers int
	// QueueDepth bounds jobs waiting for a worker slot (default 64);
	// arrivals beyond it are shed with 429.
	QueueDepth int
	// MemoryBudget bounds the aggregate estimated bytes of admitted
	// sessions (default 512 MiB). Admission reserves each session's
	// core.Problem.MemoryEstimate against it; overflow is shed with 429.
	MemoryBudget int64
	// SessionMemory is the per-session budget sampling.Problem.BatchFor
	// sizes the GD batch against (default 64 MiB).
	SessionMemory int64
	// MaxTarget caps a request's solution target (default 100000). A
	// request with target <= 0 gets exactly this cap: there are no
	// unbounded streams, which is what lets admission control price each
	// session's dedup pool.
	MaxTarget int
	// MaxWeight caps the client-supplied fair-queueing weight (default 8;
	// set 1 to ignore client weights entirely). Weights are only
	// trustworthy behind an authenticating edge — see the package doc.
	MaxWeight int
	// DefaultTarget applies when a request names no target (default 1000).
	DefaultTarget int
	// MaxTimeout / DefaultTimeout bound the per-request sampling deadline
	// (defaults 2m / 30s). Unbounded-target requests run to the deadline.
	MaxTimeout     time.Duration
	DefaultTimeout time.Duration
	// Limits bounds untrusted DIMACS input (zero value selects
	// cnf.DefaultParseLimits).
	Limits cnf.ParseLimits
	// DrainGrace is how long in-flight streams may keep running after
	// drain starts before their contexts are cancelled (default 5s).
	DrainGrace time.Duration
	// SpoolBudget bounds the resume-token spool: the aggregate bytes of
	// session checkpoints parked by drains, LRU-evicted beyond it (default
	// 32 MiB; < 0 disables spooling and drains cancel without tokens).
	SpoolBudget int64
	// SpoolDir is the spool's directory. Set, it outlives the process, so
	// resume tokens survive a restart — the chaos tier's kill/restart
	// path. Empty (or unusable) selects a private temporary directory that
	// Close removes: tokens then die with the process.
	SpoolDir string
	// Peers lists sibling replicas' base URLs ("http://10.0.0.2:8080").
	// A draining server — or one told to POST /v1/handoff — pushes each
	// interrupted stream's checkpoint envelope to the first healthy peer
	// with capacity instead of only parking it locally; the done line's
	// resume_addr then points the retrying client straight at the adopting
	// peer. Empty disables handoff (drains spool locally as before).
	Peers []string
	// PeerProbe is the /healthz probe interval for Peers (default 1s).
	PeerProbe time.Duration
	// PreemptThreshold enables SFQ preemption: once the oldest queued
	// request has starved this long with every worker slot busy, the
	// active session with the largest virtual-finish overshoot is
	// checkpointed at its next tick boundary, spooled, and re-enqueued
	// behind a fresh fair-queueing tag — the stream stays on its HTTP
	// connection across the gap. Zero disables preemption.
	PreemptThreshold time.Duration
	// TenantQueueDepth bounds the waiters any one tenant may park in the
	// admission queue; overflow is shed with 429 + Retry-After (default 0:
	// no per-tenant bound beyond QueueDepth).
	TenantQueueDepth int
	// Injector, when armed, injects chaos-tier faults: adoption
	// rejections, a per-solution delay, and the peer death, which kills
	// this process once its Nth solution is written. Nil is inert.
	Injector *faultinject.Injector
	// Seed bases the per-request session seeds (default 1).
	Seed int64
	// Log receives structured request logs (default slog.Default()).
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Compiler == nil {
		c.Compiler = sampling.NewCompiler(0)
	}
	if c.Device == (tensor.Device{}) {
		c.Device = tensor.Parallel()
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 512 << 20
	}
	if c.SessionMemory <= 0 {
		c.SessionMemory = 64 << 20
	}
	if c.MaxTarget <= 0 {
		c.MaxTarget = 100000
	}
	if c.MaxWeight <= 0 {
		c.MaxWeight = 8
	}
	if c.DefaultTarget <= 0 {
		c.DefaultTarget = 1000
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.Limits == (cnf.ParseLimits{}) {
		c.Limits = cnf.DefaultParseLimits()
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
	if c.PeerProbe <= 0 {
		c.PeerProbe = time.Second
	}
	if c.SpoolBudget == 0 {
		c.SpoolBudget = 32 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	return c
}

// Server is the satserved HTTP service. Create with New, mount Handler(),
// call StartDrain on shutdown.
type Server struct {
	cfg      Config
	compiler *sampling.Compiler
	queue    *queue
	met      *metrics
	log      *slog.Logger
	// spool parks checkpoint envelopes under their resume tokens (nil
	// when SpoolBudget < 0); spoolTmp is its private directory, if any,
	// which Close removes.
	spool    *store.Store
	spoolTmp string
	// parseGate bounds concurrent DIMACS body parses and compileGate
	// bounds concurrent formula compilations: the two pre-admission
	// memory costs. Without them a flood of limit-respecting bodies
	// could hold unbounded parsed Formulas (or compile work) before the
	// ledger or queue ever sees a request. Cache hits skip the compile
	// gate; key-based submits skip both.
	parseGate   chan struct{}
	compileGate chan struct{}

	draining   atomic.Bool
	sessCtx    context.Context // cancelled when the drain grace expires
	sessCancel context.CancelFunc

	// peers is the replica registry behind live handoff (nil without
	// Peers). handoff holds the current handoff epoch: an admin
	// POST /v1/handoff swaps in a fresh epoch and closes the old one's
	// channel, which every in-flight stream is watching.
	peers   *peerSet
	handoff atomic.Pointer[handoffSignal]

	memMu    sync.Mutex
	reserved int64

	seq       atomic.Int64 // request counter: ids and per-session seeds
	closed    chan struct{}
	closeOnce sync.Once
}

// handoffSignal is one handoff epoch: ch closes when an admin asks the
// streams of that epoch to move to a peer.
type handoffSignal struct{ ch chan struct{} }

// New builds a Server from cfg (zero fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	sp, spoolTmp := openSpool(cfg)
	s := &Server{
		cfg:         cfg,
		compiler:    cfg.Compiler,
		queue:       newQueue(cfg.Workers, cfg.QueueDepth, cfg.TenantQueueDepth),
		met:         newMetrics(),
		spool:       sp,
		spoolTmp:    spoolTmp,
		log:         cfg.Log,
		parseGate:   make(chan struct{}, max(2*cfg.Workers, 4)),
		compileGate: make(chan struct{}, cfg.Workers),
		sessCtx:     ctx,
		sessCancel:  cancel,
		closed:      make(chan struct{}),
	}
	s.handoff.Store(&handoffSignal{ch: make(chan struct{})})
	if len(cfg.Peers) > 0 {
		s.peers = newPeerSet(cfg.Peers, cfg.PeerProbe, cfg.Log)
	}
	if cfg.PreemptThreshold > 0 {
		go s.preemptLoop()
	}
	return s
}

// openSpool opens the resume-token spool: a store of checkpoint envelopes
// over SpoolDir, verified once at boot so an entry a crash left torn is
// quarantined before any token is offered. Without a usable SpoolDir it
// opens over a private temporary directory (returned for Close to remove):
// resume tokens still work within this process's lifetime, they just
// don't survive a restart. A negative SpoolBudget disables the spool.
func openSpool(cfg Config) (*store.Store, string) {
	if cfg.SpoolBudget < 0 {
		return nil, ""
	}
	if cfg.SpoolDir != "" {
		sp, err := store.OpenSuffix(cfg.SpoolDir, ".ckpt", cfg.SpoolBudget, cfg.Log)
		if err == nil {
			sp.Verify()
			if st := sp.Stats(); st.Entries > 0 {
				cfg.Log.Info("spool recovered", "entries", st.Entries, "bytes", st.Bytes)
			}
			return sp, ""
		}
		cfg.Log.Warn("spool directory unusable; falling back to a private spool", "err", err)
	}
	dir, err := os.MkdirTemp("", "satserved-spool-")
	if err == nil {
		sp, err := store.OpenSuffix(dir, ".ckpt", cfg.SpoolBudget, cfg.Log)
		if err == nil {
			return sp, dir
		}
		os.RemoveAll(dir)
	}
	cfg.Log.Warn("no spool directory; drains cancel without resume tokens", "err", err)
	return nil, ""
}

// spoolToken names a checkpoint envelope in the spool: its SHA-256, hex —
// the opaque resume token a drained stream's done line carries.
func spoolToken(env []byte) string {
	sum := sha256.Sum256(env)
	return hex.EncodeToString(sum[:])
}

// spoolPut parks a checkpoint envelope and returns its resume token.
func (s *Server) spoolPut(env []byte) (string, error) {
	if s.spool == nil {
		return "", errors.New("spool disabled")
	}
	token := spoolToken(env)
	if err := s.spool.Put(token, env); err != nil {
		return "", err
	}
	return token, nil
}

// spoolTake takes a token's envelope out of the spool. Tokens are
// one-shot, and an entry whose bytes do not hash to its token — a file
// planted under the wrong name — misses like an unknown token.
func (s *Server) spoolTake(token string) ([]byte, bool) {
	if s.spool == nil {
		return nil, false
	}
	env, ok := s.spool.Take(token)
	return env, ok && spoolToken(env) == token
}

// Close stops the server's background loops (peer prober, preemption
// ticker), cancels any remaining session contexts, and removes a private
// spool directory with the tokens in it. It does not wait for in-flight
// streams; for a graceful stop call StartDrain and http.Server.Shutdown
// first, then Close. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		if s.peers != nil {
			s.peers.Close()
		}
		s.sessCancel()
		if s.spoolTmp != "" {
			os.RemoveAll(s.spoolTmp)
		}
	})
}

// preemptLoop periodically asks the queue to apply the preemption policy.
// The queue picks the victim (and enforces the starvation threshold); the
// victim's own handler does the checkpoint/re-queue dance, so this loop
// only ticks.
func (s *Server) preemptLoop() {
	interval := s.cfg.PreemptThreshold / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case now := <-t.C:
			if s.queue.PreemptOne(s.cfg.PreemptThreshold, now) {
				s.log.Info("preemption signalled", "oldest_wait", s.queue.OldestWait(now))
			}
		}
	}
}

// Compiler returns the shared compile cache (for embedding servers that
// want to pre-warm it or report its stats elsewhere).
func (s *Server) Compiler() *sampling.Compiler { return s.compiler }

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sample", s.handleSample)
	mux.HandleFunc("POST /v1/adopt", s.handleAdopt)
	mux.HandleFunc("POST /v1/handoff", s.handleHandoff)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// StartDrain begins a graceful drain: new submissions are rejected with
// 503 immediately, requests already parked in the admission queue wake
// with the same clean 503 (instead of blocking out the grace period), and
// in-flight streams keep running for DrainGrace before their contexts are
// cancelled. A stream the grace cuts off is checkpointed into the spool
// and its summary line carries a resume token, so the client loses
// nothing — it re-attaches to the stream on the next process with
// ?resume=<token>. Idempotent. Callers typically follow with
// http.Server.Shutdown, which returns once the last stream finishes.
func (s *Server) StartDrain() {
	if !s.draining.CompareAndSwap(false, true) {
		return
	}
	s.log.Info("drain started", "grace", s.cfg.DrainGrace)
	s.queue.StartDrain()
	time.AfterFunc(s.cfg.DrainGrace, s.sessCancel)
}

// reserve admits est bytes against the aggregate memory budget.
func (s *Server) reserve(est int64) bool {
	s.memMu.Lock()
	defer s.memMu.Unlock()
	if s.reserved+est > s.cfg.MemoryBudget {
		return false
	}
	s.reserved += est
	return true
}

func (s *Server) unreserve(est int64) {
	s.memMu.Lock()
	s.reserved -= est
	s.memMu.Unlock()
}

// errorBody writes a single-line JSON error response.
func (s *Server) errorBody(w http.ResponseWriter, status int, msg, outcome, retryAfter string) {
	if retryAfter != "" {
		w.Header().Set("Retry-After", retryAfter)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
	s.met.request(outcome)
}

// litInts renders assumption literals as plain ints for the meta line.
func litInts(lits []cnf.Lit) []int {
	if len(lits) == 0 {
		return nil
	}
	out := make([]int, len(lits))
	for i, l := range lits {
		out[i] = int(l)
	}
	return out
}

// assumePrecheckConflicts bounds the CDCL precheck that rejects
// UNSAT-under-assumptions requests before a session is priced and queued.
// The bound keeps the precheck cheap on hard instances: when the solver
// exhausts it (Unknown), the request proceeds and the sampler simply
// streams whatever the conditioned space holds — possibly nothing.
const assumePrecheckConflicts = 20000

// metaLine opens every sampling stream: the problem's cache key (usable
// for later submit-by-key requests), the GD batch the session runs, the
// effective target, the projection width (0 = full assignment), and how
// long admission took.
type metaLine struct {
	Type          string  `json:"type"` // "meta"
	Key           string  `json:"key"`
	Batch         int     `json:"batch"`
	Target        int     `json:"target"`
	ProjectedVars int     `json:"projected_vars,omitempty"`
	Assumptions   []int   `json:"assumptions,omitempty"` // canonical pinned literals (specialized streams)
	Resumed       bool    `json:"resumed,omitempty"`
	Delivered     int     `json:"delivered,omitempty"` // solutions already delivered before this request (resume)
	QueueMS       float64 `json:"queue_ms"`
}

// solutionLine carries one verified solution as a 0/1 string over CNF
// variables 1..N.
type solutionLine struct {
	Type       string `json:"type"` // "solution"
	Assignment string `json:"assignment"`
}

// doneLine closes every stream, successful or drained. Under a projection
// ProjectedVars is non-zero and Unique/Delivered count projected-distinct
// solutions (each streamed assignment is a full-model witness of one
// projected class).
type doneLine struct {
	Type          string  `json:"type"` // "done"
	Unique        int     `json:"unique"`
	Delivered     int     `json:"delivered"`
	ProjectedVars int     `json:"projected_vars,omitempty"`
	Calls         int     `json:"calls"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	SolPerSec     float64 `json:"sol_per_sec"`
	Timeout       bool    `json:"timeout"`
	Exhausted     bool    `json:"exhausted"`
	Drained       bool    `json:"drained"`
	// Resume is the opaque one-shot token an interrupted stream can be
	// re-attached with (POST /v1/sample?resume=<token>); empty when the
	// stream completed or the spool could not hold the checkpoint.
	Resume string `json:"resume,omitempty"`
	// ResumeAddr, when set, is the base URL of the peer that adopted this
	// stream's checkpoint: the client should present Resume there, not
	// here. Empty means the token is local to the issuing server.
	ResumeAddr string `json:"resume_addr,omitempty"`
	// Preempted marks a stream that ended because it was preempted off its
	// worker slot and could not be re-admitted (drain or disconnect struck
	// while it was parked); Resume carries its token. Preemptions counts
	// the times this stream was checkpointed off its slot and transparently
	// re-admitted on this same connection.
	Preempted   bool `json:"preempted,omitempty"`
	Preemptions int  `json:"preemptions,omitempty"`
}

// yieldWatch merges the grant's preemption signal and the handoff epoch
// into the single yield channel StreamYield polls at tick boundaries. The
// returned stop func releases the watcher goroutine; nil inputs are simply
// never selected (both nil: no watcher at all).
func yieldWatch(preempt, handoff <-chan struct{}) (<-chan struct{}, func()) {
	if preempt == nil && handoff == nil {
		return nil, func() {}
	}
	yield := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		select {
		case <-preempt:
			close(yield)
		case <-handoff:
			close(yield)
		case <-stop:
		}
	}()
	return yield, func() { close(stop) }
}

// parkEnvelope finds a home for an interrupted stream's checkpoint: the
// first healthy peer that adopts it (the client is redirected there via
// resume_addr), falling back to the local spool.
func (s *Server) parkEnvelope(id int64, env []byte) (token, addr string) {
	if s.peers != nil {
		if tok, peer, ok := s.peers.Handoff(env); ok {
			s.met.inc(&s.met.handoffSent)
			s.log.Info("stream handed to peer", "id", id, "peer", peer)
			return tok, peer
		}
	}
	tok, err := s.spoolPut(env)
	if err != nil {
		s.log.Warn("checkpoint not spooled", "id", id, "err", err)
		return "", ""
	}
	s.met.inc(&s.met.checkpoints)
	return tok, ""
}

// handleSample serves POST /v1/sample as four stages: parseRequest reads
// the query, resolve turns it into a compiled problem, admit reserves
// memory and a worker slot and opens the session, and stream runs the
// session out on the connection. A stage that fails before the stream
// starts returns a stageError, written here and nowhere else.
func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	req, serr := s.parseRequest(r)
	var prob *sampling.Problem
	var adm *admission
	if serr == nil {
		prob, serr = s.resolve(r, req)
	}
	if serr == nil {
		adm, serr = s.admit(r.Context(), req, prob)
	}
	if serr != nil {
		s.fail(w, req, serr)
		return
	}
	defer adm.release()
	s.stream(w, r, req, prob, adm)
}

// sampleRequest is a /v1/sample request as parseRequest read it.
type sampleRequest struct {
	id      int64
	t0      time.Time
	tenant  string
	weight  int
	target  int
	timeout time.Duration
	seed    int64
	spec    ProblemSpec
	// ck is the decoded envelope a ?resume= token took out of the spool
	// (nil for a fresh request); envelope holds its bytes for fail to put
	// back.
	ck       *sampling.Checkpoint
	envelope []byte
}

// stageError is a request that failed before its stream started: the
// status, message, outcome label and Retry-After the handler writes. A
// zero status means the client is gone and nothing can be written; only
// the outcome is counted.
type stageError struct {
	status     int
	msg        string
	outcome    string
	retryAfter string
	// spent marks a failure of the resume envelope itself, which is not
	// put back into the spool: a retry could only fail the same way.
	spent bool
}

var errCancelled = &stageError{outcome: outcomeCancelled}

func badRequest(msg string) *stageError {
	return &stageError{status: http.StatusBadRequest, msg: msg, outcome: outcomeBadRequest}
}

var errServerDraining = &stageError{status: http.StatusServiceUnavailable, msg: "server draining",
	outcome: outcomeDraining, retryAfter: "5"}

// fail ends a request that never reached its stream. Tokens are one-shot,
// but a take followed by a shed must not destroy the checkpoint: a taken
// envelope goes back into the spool under the same token (it IS the
// content hash), so the client's retry after backoff still resumes.
func (s *Server) fail(w http.ResponseWriter, req *sampleRequest, e *stageError) {
	if req != nil && req.ck != nil && !e.spent {
		if _, err := s.spoolPut(req.envelope); err != nil {
			s.log.Warn("could not re-spool checkpoint after shed", "id", req.id, "err", err)
		}
	}
	if e.status == 0 {
		s.met.request(e.outcome)
		return
	}
	s.errorBody(w, e.status, e.msg, e.outcome, e.retryAfter)
}

// parseRequest reads the request's tenant, weight, target, timeout, seed
// and problem spec, and takes its ?resume= envelope out of the spool.
func (s *Server) parseRequest(r *http.Request) (*sampleRequest, *stageError) {
	req := &sampleRequest{t0: time.Now(), id: s.seq.Add(1), weight: 1,
		target: s.cfg.DefaultTarget, timeout: s.cfg.DefaultTimeout}
	if s.draining.Load() {
		return nil, errServerDraining
	}
	q := r.URL.Query()
	// The edge-set header wins over the query parameter: when a trusted
	// proxy asserts tenant identity, a client must not be able to
	// impersonate (or fabricate) tenants by appending ?tenant=.
	req.tenant = r.Header.Get("X-Tenant")
	if req.tenant == "" {
		req.tenant = q.Get("tenant")
	}
	if req.tenant == "" {
		req.tenant = "anon"
	}
	if v, err := strconv.Atoi(q.Get("weight")); err == nil {
		req.weight = min(max(v, 1), s.cfg.MaxWeight)
	}
	if tv := q.Get("target"); tv != "" {
		v, err := strconv.Atoi(tv)
		if err != nil {
			return nil, badRequest("bad target")
		}
		req.target = v
	}
	if req.target > s.cfg.MaxTarget {
		return nil, badRequest(fmt.Sprintf("target exceeds maximum %d", s.cfg.MaxTarget))
	}
	if req.target <= 0 {
		// "Unbounded" means the server's cap: every admitted stream is
		// bounded, so its dedup pool is priceable at admission time. The
		// deadline usually ends such a stream first.
		req.target = s.cfg.MaxTarget
	}
	if tv := q.Get("timeout"); tv != "" {
		d, err := time.ParseDuration(tv)
		if err != nil || d <= 0 {
			return nil, badRequest("bad timeout")
		}
		req.timeout = min(d, s.cfg.MaxTimeout)
	}
	// ?seed= pins the session seed (deterministic replays, differential
	// chaos harnesses); absent, each request gets a distinct seed derived
	// from the server base seed and the request counter.
	req.seed = s.cfg.Seed + req.id
	if sv := q.Get("seed"); sv != "" {
		v, err := strconv.ParseInt(sv, 10, 64)
		if err != nil {
			return nil, badRequest("bad seed")
		}
		req.seed = v
	}
	// ?project= declares the sampling set for this request; it overrides
	// any "c ind" lines in a posted body. ?assume= pins literals: the
	// compiled artifact is re-specialized (never recompiled) under the pins
	// and the session streams only solutions agreeing with them. Range
	// validation follows once the formula is resolved.
	spec, err := ParseProblemSpec(q)
	if err != nil {
		return nil, badRequest(err.Error())
	}
	req.spec = spec
	// ?resume= re-admits a checkpointed session from the spool: the token
	// is one-shot, its envelope self-contained (formula included), and the
	// restored session is re-priced and re-queued like any fresh request —
	// resumption is a scheduling event, not a side door around admission
	// control.
	if token := q.Get("resume"); token != "" {
		data, ok := s.spoolTake(token)
		if !ok {
			return nil, &stageError{status: http.StatusNotFound,
				msg: "unknown or expired resume token", outcome: outcomeNotFound}
		}
		ck, err := sampling.DecodeCheckpoint(data)
		if err != nil {
			s.log.Warn("bad resume token", "id", req.id, "tenant", req.tenant, "err", err)
			return nil, badRequest("bad resume token: " + err.Error())
		}
		req.ck, req.envelope = ck, data
	}
	return req, nil
}

// acquire takes one slot of gate, or reports false when ctx ends first.
func acquire(ctx context.Context, gate chan struct{}) bool {
	select {
	case gate <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// errGone reports that the request's context ended while it waited for a
// gate.
var errGone = errors.New("client gone")

// resolve turns the request into its compiled problem: the resume
// envelope's artifact, a cached artifact by ?key=, or the posted body
// compiled through the shared single-flight cache. A fresh pinned request
// then gets the UNSAT-under-assumptions precheck.
func (s *Server) resolve(r *http.Request, req *sampleRequest) (*sampling.Problem, *stageError) {
	if req.ck != nil {
		// The envelope's assumption set is authoritative: a redundant
		// ?assume= must agree with it (the sharded edge repeats the query
		// so the resume routes to the specialized key's owner).
		if len(req.spec.Assume) > 0 && !slices.Equal(req.spec.Assume, req.ck.Assumptions()) {
			return nil, badRequest("assume does not match the resume envelope's assumption set")
		}
		prob, err := s.envelopeProblem(r.Context(), req.ck)
		switch {
		case errors.Is(err, errGone):
			return nil, errCancelled
		case err != nil:
			e := badRequest("resume compile: " + err.Error())
			e.spent = true
			return nil, e
		}
		return prob, nil
	}
	var prob *sampling.Problem
	var serr *stageError
	if req.spec.Key != "" {
		prob, serr = s.resolveKey(req.spec)
	} else {
		prob, serr = s.resolveBody(r.Context(), r.Body, req.spec)
	}
	if serr != nil {
		return nil, serr
	}
	// A bounded CDCL probe on the base formula rejects contradictory pin
	// sets with a typed error before the session is priced and queued.
	// Unknown (conflict budget exhausted) admits the request — the stream
	// then honestly reports zero solutions if the space is empty.
	if len(prob.Assumptions()) > 0 {
		sv := sat.NewSolver(prob.Formula(), sat.Options{MaxConflicts: assumePrecheckConflicts})
		if sv.SolveAssume(prob.Assumptions()...) == sat.Unsat {
			return nil, &stageError{status: http.StatusConflict,
				msg: "formula is unsatisfiable under the given assumptions", outcome: outcomeUnsatAssume}
		}
	}
	return prob, nil
}

// envelopeProblem resolves a checkpoint envelope's artifact for ?resume=
// and /v1/adopt alike: a memory or store hit on the envelope's key, else
// (typically: the process restarted between the checkpoint and the
// resume) a gated recompile of the embedded formula, re-specialized under
// the envelope's pins so the specialized key is the one that turns warm.
func (s *Server) envelopeProblem(ctx context.Context, ck *sampling.Checkpoint) (*sampling.Problem, error) {
	if p, ok := s.compiler.Lookup(ck.Key()); ok {
		return p, nil
	}
	if !acquire(ctx, s.compileGate) {
		return nil, errGone
	}
	defer func() { <-s.compileGate }()
	return s.compiler.CompileAssume(ck.Formula(), ck.Assumptions())
}

// resolveKey finds an already-compiled artifact by ?key=, specializing a
// cached base under ?assume= when the specialized key is not resident.
func (s *Server) resolveKey(spec ProblemSpec) (*sampling.Problem, *stageError) {
	p, ok, err := s.compiler.LookupAssume(spec.Key, spec.Assume)
	switch {
	case errors.Is(err, core.ErrBadAssume):
		// The base artifact exists but the pins are invalid for it — the
		// client's error, not a cache miss.
		return nil, badRequest(err.Error())
	case err != nil:
		return nil, &stageError{status: http.StatusInternalServerError, msg: err.Error(), outcome: outcomeStreamErr}
	case !ok:
		return nil, &stageError{status: http.StatusNotFound, msg: "unknown problem key", outcome: outcomeNotFound}
	}
	// A key identifies a compiled artifact; a request projection rides on
	// the session instead of the cache key (the artifact is projection-
	// independent — only solution identity changes).
	if err := cnf.ValidateProjection(p.Formula().NumVars, spec.Projection); err != nil {
		return nil, badRequest(err.Error())
	}
	return p, nil
}

// resolveBody parses the posted DIMACS and compiles it. New formulas pass
// the parse gate and then the compile gate, so a flood of distinct CNFs
// holds a bounded number of parsed formulas and runs at most Workers
// compilations at once; a warm problem key (a repeat formula, or a repeat
// pin set over one) releases the parse gate and skips the compile gate.
func (s *Server) resolveBody(ctx context.Context, body io.Reader, spec ProblemSpec) (*sampling.Problem, *stageError) {
	if !acquire(ctx, s.parseGate) {
		return nil, errCancelled
	}
	f, err := cnf.ParseDIMACSLimits(body, s.cfg.Limits)
	if errors.Is(err, cnf.ErrLimit) {
		<-s.parseGate
		return nil, &stageError{status: http.StatusRequestEntityTooLarge, msg: err.Error(), outcome: outcomeTooLarge}
	}
	var key string
	if err == nil {
		key, err = spec.ProblemKey(f)
	}
	if err != nil {
		<-s.parseGate
		return nil, badRequest(err.Error())
	}
	if p, ok := s.compiler.Lookup(key); ok {
		<-s.parseGate
		return p, nil
	}
	// The parse gate is held until the compile slot is acquired: releasing
	// it earlier would let goroutines blocked on the compile gate
	// accumulate parsed Formulas without bound — formula holders are
	// capped at parseGate+compileGate slots.
	ok := acquire(ctx, s.compileGate)
	<-s.parseGate
	if !ok {
		return nil, errCancelled
	}
	p, err := s.compiler.CompileAssume(f, spec.Assume)
	<-s.compileGate
	if err != nil {
		return nil, badRequest("compile: " + err.Error())
	}
	return p, nil
}

// admission is a request's hold on the server: its memory reservation, its
// worker-slot grant, and the session opened on them. A preempted stream
// gives the reservation and the grant back (release) and takes them again
// (reclaim); release frees whatever is still held.
type admission struct {
	s         *Server
	shape     core.Shape // what est priced: the session's batch, pool bound and projection
	est       int64
	memHeld   bool
	grant     *Grant
	queueWait time.Duration
	sess      *sampling.Session
}

func (a *admission) release() {
	if a.memHeld {
		a.s.unreserve(a.est)
		a.memHeld = false
	}
	if a.grant != nil {
		a.grant.Release()
		a.grant = nil
	}
}

// reclaim re-files the request behind a fresh fair-queueing tag and
// re-reserves its memory; false means it could not get back in (drain,
// full queue, disconnect, or the budget is gone).
func (a *admission) reclaim(ctx context.Context, req *sampleRequest) bool {
	g, err := a.s.queue.AcquireGrant(ctx, req.tenant, req.weight)
	if err != nil {
		return false
	}
	a.grant = g
	if !a.s.reserve(a.est) {
		return false
	}
	a.memHeld = true
	return true
}

// admit prices the session, reserves it against the memory ledger, waits
// for a weighted-fair worker slot, and opens the session on it. Memory
// comes first: reserving before queueing keeps the wait queue free of
// jobs that could not run anyway, and the ledger covers queued + active
// sessions so the budget can never be exceeded.
func (s *Server) admit(ctx context.Context, req *sampleRequest, prob *sampling.Problem) (*admission, *stageError) {
	a := &admission{s: s}
	workers := s.cfg.Device.Workers()
	if req.ck != nil {
		// A resumed session's shape is fixed by its checkpoint — the batch
		// it was snapshotted with is the batch it restores at, whatever
		// this server would size a fresh session at.
		a.shape = req.ck.Snapshot().Shape(workers, req.target)
	} else {
		// The effective projection width is known pre-admission: the
		// explicit spec, or the formula's declared set the session would
		// inherit.
		effProj := len(req.spec.Projection)
		if effProj == 0 {
			effProj = len(prob.Formula().Projection)
		}
		batch := prob.BatchFor(sampling.SessionConfig{Device: s.cfg.Device, MemoryBudget: s.cfg.SessionMemory})
		a.shape = core.Shape{Workers: workers, Batch: batch, Target: req.target, Projection: effProj}
	}
	a.est = prob.Core().MemoryEstimate(a.shape)
	if !s.reserve(a.est) {
		s.log.Warn("shed", "id", req.id, "tenant", req.tenant, "reason", "memory",
			"estimate", a.est, "key", short(prob.Key()))
		return nil, &stageError{status: http.StatusTooManyRequests, msg: "session memory budget exhausted",
			outcome: outcomeShedMemory, retryAfter: "2"}
	}
	a.memHeld = true

	qt0 := time.Now()
	grant, err := s.queue.AcquireGrant(ctx, req.tenant, req.weight)
	if err != nil {
		a.release()
		return nil, s.queueRefusal(req, prob, err)
	}
	a.grant = grant
	// Pure slot wait — parse/compile time is excluded so operators tuning
	// Workers/QueueDepth see real queueing pressure, not compile cost.
	a.queueWait = time.Since(qt0)

	if req.ck != nil {
		// The restored session resumes the checkpointed stream exactly:
		// batch, seed, projection, pool and delivery cursor all come from
		// the envelope (streams are device-independent, so it runs on this
		// server's device whatever the original ran on).
		a.sess, err = prob.RestoreSession(req.ck, s.cfg.Device)
	} else {
		a.sess, err = prob.NewSession(sampling.SessionConfig{
			BatchSize:  a.shape.Batch,
			Seed:       req.seed,
			Device:     s.cfg.Device,
			Projection: req.spec.Projection, // nil inherits the formula's declared set
		})
	}
	if err != nil {
		a.release()
		return nil, &stageError{status: http.StatusInternalServerError, msg: err.Error(),
			outcome: outcomeStreamErr, spent: true}
	}
	if req.ck != nil {
		s.met.inc(&s.met.resumes)
	}
	return a, nil
}

// queueRefusal maps an AcquireGrant failure to its reply.
func (s *Server) queueRefusal(req *sampleRequest, prob *sampling.Problem, err error) *stageError {
	shed := func(reason, msg, outcome string) *stageError {
		s.log.Warn("shed", "id", req.id, "tenant", req.tenant, "reason", reason, "key", short(prob.Key()))
		return &stageError{status: http.StatusTooManyRequests, msg: msg, outcome: outcome, retryAfter: "1"}
	}
	switch {
	case errors.Is(err, ErrQueueFull):
		return shed("queue", "queue full", outcomeShedQueue)
	case errors.Is(err, ErrTenantFull):
		return shed("tenant_queue", "tenant queue share full", outcomeShedTenant)
	case errors.Is(err, ErrDraining):
		// A drain started while this request waited for a slot: same clean
		// 503 a fresh arrival gets, instead of riding out the grace period
		// blocked in the queue.
		return errServerDraining
	default:
		// Client disconnected while waiting; nothing can be written.
		return errCancelled
	}
}

// stream runs an admitted session out on the connection: the meta line,
// the solution lines over as many legs as preemption takes, the drain
// checkpoint, and the done line. A stream that fails once the header is
// out ends without a done line and counts as a stream error.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, req *sampleRequest, prob *sampling.Problem, adm *admission) {
	// The session context: request deadline + client disconnect (via
	// r.Context) + drain cancellation.
	ctx, cancel := context.WithTimeout(r.Context(), req.timeout)
	defer cancel()
	stopDrainWatch := context.AfterFunc(s.sessCtx, cancel)
	defer stopDrainWatch()
	projVars := len(adm.sess.Projection())

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Problem-Key", prob.Key())
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	writeLine := func(v any) error {
		if err := enc.Encode(v); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	if err := writeLine(metaLine{
		Type: "meta", Key: prob.Key(), Batch: adm.shape.Batch, Target: req.target,
		ProjectedVars: projVars,
		Assumptions:   litInts(prob.Assumptions()),
		Resumed:       req.ck != nil,
		Delivered:     adm.sess.Delivered(),
		QueueMS:       float64(adm.queueWait.Microseconds()) / 1e3,
	}); err != nil {
		s.met.request(outcomeStreamErr)
		return
	}

	// The continuous scheduler can overshoot small targets by a whole
	// retired batch; the service contract is "at most target solutions per
	// request", so the sink stops the stream at exactly the target.
	// Delivery is counted on the session (not this request) so a resumed
	// stream's earlier deliveries count toward its target.
	delivered := 0
	sink := func(sol []bool) error {
		if err := writeLine(solutionLine{Type: "solution", Assignment: bitString(sol)}); err != nil {
			return err
		}
		delivered++
		s.met.addSolutions(1, projVars > 0, time.Now())
		if _, death := s.cfg.Injector.AdvanceSol(); death {
			// The chaos plan's peer death: end the process as SIGKILL
			// would, mid-stream, with no drain and no deferred cleanup.
			os.Exit(137)
		}
		if req.target > 0 && adm.sess.Delivered() >= req.target {
			return sampling.Stop
		}
		return nil
	}
	end := s.runLegs(ctx, r.Context(), req, prob, adm, sink)

	st := end.st
	drained := s.sessCtx.Err() != nil && st.Timeout
	// A drained stream parks its full state — on a peer when one will
	// adopt it, in the local spool otherwise — and hands the client a
	// resume token on the summary line: the drain preserved the session
	// instead of discarding it, so nothing is lost across the restart.
	if drained && end.err == nil && end.token == "" {
		if env, cerr := adm.sess.Checkpoint(); cerr != nil {
			s.log.Warn("drain checkpoint failed", "id", req.id, "err", cerr)
		} else {
			end.token, end.addr = s.parkEnvelope(req.id, env)
		}
	}
	outcome := outcomeOK
	if end.err != nil {
		outcome = outcomeStreamErr
	} else {
		_ = writeLine(doneLine{
			Type: "done", Unique: st.Unique, Delivered: delivered,
			ProjectedVars: projVars, Calls: st.Calls,
			ElapsedMS: float64(st.Elapsed.Microseconds()) / 1e3,
			SolPerSec: st.Throughput(), Timeout: st.Timeout,
			Exhausted: st.Exhausted, Drained: drained,
			Resume: end.token, ResumeAddr: end.addr,
			Preempted: end.preempted, Preemptions: end.preemptions,
		})
	}
	if projVars > 0 {
		s.met.inc(&s.met.projRequests)
	}
	s.met.request(outcome)
	s.log.Info("sample", "id", req.id, "tenant", req.tenant, "key", short(prob.Key()),
		"target", req.target, "projected", projVars, "unique", st.Unique, "delivered", delivered,
		"queue_ms", adm.queueWait.Milliseconds(), "elapsed_ms", st.Elapsed.Milliseconds(),
		"total_ms", time.Since(req.t0).Milliseconds(), "timeout", st.Timeout,
		"exhausted", st.Exhausted, "drained", drained, "resumed", req.ck != nil,
		"preemptions", end.preemptions, "handed_off", end.addr != "",
		"checkpointed", end.token != "", "outcome", outcome)
}

// legsEnd is how a stream's legs ended: the last leg's stats and error,
// where an interrupted stream's checkpoint was parked, and its preemption
// history.
type legsEnd struct {
	st          sampling.Stats
	err         error
	token, addr string
	preemptions int
	preempted   bool
}

// runLegs streams the session in legs: a leg ends at the target, the
// deadline, an error — or a yield request (preemption or handoff) at a
// tick boundary. A preempted leg checkpoints, gives back slot + memory,
// re-files behind a fresh SFQ tag (behind every starved waiter that
// triggered it), restores, and continues on this same connection; a
// handoff leg parks the checkpoint on a peer and ends the stream.
func (s *Server) runLegs(ctx, reqCtx context.Context, req *sampleRequest, prob *sampling.Problem,
	adm *admission, sink sampling.Sink) legsEnd {
	handoffCh := s.handoff.Load().ch
	preemptBroken := false // a failed checkpoint pins the session to its slot
	var end legsEnd
	for {
		var preemptCh <-chan struct{}
		if !preemptBroken {
			preemptCh = adm.grant.Preempt
		}
		yield, stopYield := yieldWatch(preemptCh, handoffCh)
		end.st, end.err = adm.sess.StreamYield(ctx, req.target, yield, sink)
		stopYield()
		if end.err != nil || !end.st.Yielded {
			return end
		}
		isPreempt := false
		select {
		case <-adm.grant.Preempt:
			isPreempt = true
		default:
		}
		env, cerr := adm.sess.Checkpoint()
		if cerr != nil {
			// A session that cannot be checkpointed cannot move: keep
			// streaming and stop watching the signal that fired.
			s.log.Warn("yield checkpoint failed; stream pinned", "id", req.id, "err", cerr)
			if isPreempt {
				preemptBroken = true
			} else {
				handoffCh = nil
			}
			continue
		}
		if !isPreempt {
			// Handoff: the checkpoint moves to a peer (spool fallback) and
			// the client re-attaches wherever the token landed.
			end.token, end.addr = s.parkEnvelope(req.id, env)
			return end
		}
		end.preemptions++
		s.met.inc(&s.met.preemptions)
		// Spool before giving anything up: if the process dies while this
		// request is parked in the queue, the checkpoint survives.
		tok, perr := s.spoolPut(env)
		if perr != nil {
			s.log.Warn("preempt checkpoint not spooled; held in memory only", "id", req.id, "err", perr)
		}
		adm.release()
		s.log.Info("preempted", "id", req.id, "tenant", req.tenant, "delivered", adm.sess.Delivered())
		if !adm.reclaim(reqCtx, req) {
			// Could not get back in (drain, full queue, disconnect): hand
			// the client its token; the checkpoint stays spooled.
			end.token, end.preempted = tok, true
			return end
		}
		if tok != "" {
			// The session continues here; reclaim the safety copy.
			s.spoolTake(tok)
		}
		ck, derr := sampling.DecodeCheckpoint(env)
		if derr == nil {
			adm.sess, derr = prob.RestoreSession(ck, s.cfg.Device)
		}
		if derr != nil {
			end.err = fmt.Errorf("preemption restore: %w", derr)
			return end
		}
	}
}

// handleHealthz reports liveness plus the capacity hints peers use to pick
// an adoption target: free worker slots, free queue depth, unreserved
// session memory, and whether this server adopts handoffs at all.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	s.memMu.Lock()
	reserved := s.reserved
	s.memMu.Unlock()
	active, queued := s.queue.Active(), s.queue.Depth()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(client.Health{
		Status:       status,
		Active:       active,
		Queued:       queued,
		FreeSlots:    max(0, s.cfg.Workers-active),
		QueueFree:    max(0, s.cfg.QueueDepth-queued),
		MemFreeBytes: max(0, s.cfg.MemoryBudget-reserved),
		Adopt:        !s.draining.Load() && s.cfg.SpoolBudget > 0,
		Uptime:       time.Since(s.met.start).Round(time.Millisecond).String(),
		Version:      "satserved/1",
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.memMu.Lock()
	reserved := s.reserved
	s.memMu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var sp store.Stats
	if s.spool != nil {
		sp = s.spool.Stats()
	}
	s.met.Write(w, s.queue.Depth(), s.queue.Active(), reserved, s.cfg.MemoryBudget,
		s.compiler.Stats(), s.compiler.StoreStats(), s.draining.Load(), sp)
}

// bitString renders a dense assignment as the CLI-compatible 0/1 string.
func bitString(sol []bool) string {
	b := make([]byte, len(sol))
	for i, v := range sol {
		if v {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// short abbreviates a content-hash key for logs.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
