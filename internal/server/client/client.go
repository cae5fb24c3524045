// Package client is the retrying satserved consumer: it issues sampling
// requests against a server — or a fleet of replicas — honors the
// service's backpressure signals (Retry-After on 429/503, capped
// exponential backoff with jitter elsewhere), and transparently
// re-attaches interrupted streams through their resume tokens, following
// a handoff's resume_addr to whichever peer adopted the checkpoint. A
// caller sees one logical stream of solutions across load sheds, drains,
// preemptions, replica deaths, and server restarts, or a single clear
// error once the retry budget (attempts and/or wall clock) is spent.
package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Meta mirrors the stream's opening line.
type Meta struct {
	Type          string  `json:"type"`
	Key           string  `json:"key"`
	Batch         int     `json:"batch"`
	Target        int     `json:"target"`
	ProjectedVars int     `json:"projected_vars"`
	Resumed       bool    `json:"resumed"`
	Delivered     int     `json:"delivered"`
	QueueMS       float64 `json:"queue_ms"`
}

// Done mirrors the stream's summary line.
type Done struct {
	Type          string  `json:"type"`
	Unique        int     `json:"unique"`
	Delivered     int     `json:"delivered"`
	ProjectedVars int     `json:"projected_vars"`
	Calls         int     `json:"calls"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	SolPerSec     float64 `json:"sol_per_sec"`
	Timeout       bool    `json:"timeout"`
	Exhausted     bool    `json:"exhausted"`
	Drained       bool    `json:"drained"`
	Resume        string  `json:"resume"`
	ResumeAddr    string  `json:"resume_addr"`
	Preempted     bool    `json:"preempted"`
	Preemptions   int     `json:"preemptions"`
}

// Result is one logical sampling request's outcome, accumulated across
// every retry and resume leg the client drove.
type Result struct {
	Meta      Meta     // the first successful leg's meta line
	Solutions []string // 0/1 assignment strings, in stream order
	Done      Done     // the final leg's done line
	Retries   int      // legs re-issued after a shed, error, or outage
	Resumes   int      // legs re-attached through a resume token
	// Preemptions accumulates how many times the stream was checkpointed
	// off its worker slot (and transparently continued) across all legs.
	Preemptions int

	lastRetryAfter time.Duration // Retry-After floor from the last shed leg
}

// Config tunes the retry policy. The zero value is usable.
type Config struct {
	// HTTP is the transport; nil uses http.DefaultClient.
	HTTP *http.Client
	// MaxAttempts bounds the HTTP legs one Sample may issue, counting the
	// first (default 8). Resume legs count too: a flapping server cannot
	// pin a client forever.
	MaxAttempts int
	// BaseBackoff seeds the exponential schedule (default 100ms); the
	// delay before attempt n is min(Base<<n, MaxBackoff) ± 25% jitter,
	// except when the server's Retry-After names a longer floor.
	BaseBackoff time.Duration
	// MaxBackoff caps the schedule (default 5s).
	MaxBackoff time.Duration
	// MaxElapsed, when non-zero, is the total wall-clock budget for one
	// Sample call across every leg and backoff: once spent, the next retry
	// decision returns ErrBudgetExhausted instead of trying again. It
	// complements MaxAttempts — attempts bound legs, MaxElapsed bounds how
	// long a dead fleet can hold a caller.
	MaxElapsed time.Duration
	// Sleep, when set, replaces the context-aware backoff timer (tests).
	Sleep func(context.Context, time.Duration) error
	// OnSolution, when set, observes every accumulated solution with the
	// running total — the hook chaos harnesses use to inject faults at
	// exact delivery points.
	OnSolution func(total int)
}

// Client issues retrying sampling requests against a satserved fleet: one
// base URL or several replicas. Fresh legs go to the current base and
// rotate to the next replica when that base sheds or dies; resume legs are
// pinned to the address that holds the token — the issuing server, or the
// peer named by the done line's resume_addr after a handoff.
type Client struct {
	bases []string
	cfg   Config

	mu  sync.Mutex
	rng *rand.Rand
	cur int // rotation cursor into bases for non-resume legs
}

// Bases canonicalizes server base URLs the one way every client, server
// peer list and shard router stores and dials them: each entry is trimmed
// of spaces and trailing slashes and given an "http://" scheme when it has
// none ("127.0.0.1:8080" → "http://127.0.0.1:8080"); empty entries are
// dropped.
func Bases(raw ...string) []string {
	out := make([]string, 0, len(raw))
	for _, b := range raw {
		b = strings.TrimRight(strings.TrimSpace(b), "/")
		if b == "" {
			continue
		}
		if !strings.Contains(b, "://") {
			b = "http://" + b
		}
		out = append(out, b)
	}
	return out
}

// New builds a client for the server at base (e.g. "http://127.0.0.1:8080"
// or "127.0.0.1:8080").
func New(base string, cfg Config) *Client {
	return NewFleet([]string{base}, cfg)
}

// NewFleet builds a client over a fleet of equivalent replicas. The first
// base is preferred; the client rotates through the rest when a base sheds
// load or stops answering.
func NewFleet(bases []string, cfg Config) *Client {
	if cfg.HTTP == nil {
		cfg.HTTP = http.DefaultClient
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	cleaned := Bases(bases...)
	if len(cleaned) == 0 {
		cleaned = []string{""}
	}
	return &Client{
		bases: cleaned,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// currentBase returns the rotation's current base for a fresh leg.
func (c *Client) currentBase() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bases[c.cur%len(c.bases)]
}

// rotate advances fresh legs to the next replica.
func (c *Client) rotate() {
	c.mu.Lock()
	c.cur++
	c.mu.Unlock()
}

// Request parameterizes one logical sampling request.
type Request struct {
	// DIMACS is the CNF text posted on the first leg. Resume legs never
	// re-send it — the server's checkpoint embeds the formula.
	DIMACS string
	// Target is the total solutions wanted (0 = unbounded; an unbounded
	// stream ends only by timeout, drain, or exhaustion).
	Target int
	// Timeout, when non-zero, rides the request as ?timeout=.
	Timeout time.Duration
	// Seed, when non-nil, pins the server-side sampling seed.
	Seed *int64
	// Resume, when set, starts from an existing resume token instead of
	// posting DIMACS — picking up a stream a previous client lost.
	Resume string
}

// ErrAttemptsExhausted is returned (wrapped) when the attempt budget runs
// out before a stream completes.
var ErrAttemptsExhausted = errors.New("client: attempts exhausted")

// ErrBudgetExhausted is returned (wrapped) when MaxElapsed wall-clock
// budget is spent before a stream completes — the terminal signal against
// a dead fleet. The wrapped message carries the attempt count.
var ErrBudgetExhausted = errors.New("client: elapsed budget exhausted")

// StatusError reports a terminal, non-retryable HTTP status.
type StatusError struct {
	Status int
	Body   string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: status %d: %s", e.Status, strings.TrimSpace(e.Body))
}

// Sample runs one logical sampling request to completion: it retries
// sheds and transport failures with backoff, rotates fresh legs across
// the fleet when a replica sheds or dies, follows interrupted streams
// (drains, handoffs, preemptions) through their resume tokens — including
// across peers via resume_addr — and returns the accumulated stream. On a
// retryable failure after the budget is spent it returns the partial
// Result alongside the error, so callers can keep verified work.
func (c *Client) Sample(ctx context.Context, req Request) (*Result, error) {
	res := &Result{}
	resume := req.Resume
	// resumeBase pins resume legs to the address that holds the token;
	// empty means "the current rotation base" (a token supplied by the
	// caller in req.Resume, redeemed wherever we first connect).
	resumeBase := ""
	gotMeta := false
	start := time.Now()
	budgetSpent := func() bool {
		return c.cfg.MaxElapsed > 0 && time.Since(start) >= c.cfg.MaxElapsed
	}
	attempt := 0
	for ; attempt < c.cfg.MaxAttempts; attempt++ {
		if budgetSpent() {
			break
		}
		if attempt > 0 {
			res.Retries++
		}
		base := c.currentBase()
		if resume != "" && resumeBase != "" {
			base = resumeBase
		}
		mark := len(res.Solutions)
		leg, err := c.leg(ctx, base, req, resume, res, &gotMeta)
		switch {
		case err == nil && leg == legDone:
			return res, nil
		case err == nil && leg == legDrained:
			// The server parked the stream and handed us its continuation;
			// the next leg re-attaches — at the adopting peer when the done
			// line named one, else at the server that parked it. Not an
			// error, but backed off: the interruption usually means that
			// process is restarting or rebalancing.
			resume = res.Done.Resume
			resumeBase = base
			if adopter := Bases(res.Done.ResumeAddr); len(adopter) > 0 {
				resumeBase = adopter[0]
			}
			res.Resumes++
			if werr := c.backoff(ctx, attempt, 0); werr != nil {
				return res, werr
			}
		case err == nil && leg == legShed:
			// A shed replica is a reason to try a sibling; resume legs stay
			// pinned (the token lives in one spool).
			if resume == "" {
				c.rotate()
			}
			if werr := c.backoff(ctx, attempt, res.lastRetryAfter); werr != nil {
				return res, werr
			}
		case err != nil && ctx.Err() != nil:
			return res, ctx.Err()
		case err != nil && isTerminal(err):
			return res, err
		default:
			var pse *preStreamError
			if errors.As(err, &pse) {
				// Connection-level failure before any response (server down
				// or restarting): the leg retries verbatim — a resume token
				// is still parked server-side, so resume legs keep knocking
				// on the same address while fresh legs move to a sibling.
				if resume == "" {
					c.rotate()
				}
				if werr := c.backoff(ctx, attempt, 0); werr != nil {
					return res, werr
				}
				continue
			}
			// Transport failure mid-stream. This leg's partial deliveries
			// are discarded — the retried request (on the next replica, if
			// the fleet has one) re-streams them, keeping the accumulated
			// result exactly-once. A broken resume leg already consumed its
			// one-shot token, so what survived earlier legs is all that
			// remains.
			res.Solutions = res.Solutions[:mark]
			if resume != "" {
				return res, fmt.Errorf("client: resume leg failed, token spent: %w", err)
			}
			c.rotate()
			if werr := c.backoff(ctx, attempt, 0); werr != nil {
				return res, werr
			}
		}
	}
	if budgetSpent() {
		return res, fmt.Errorf("%w: %v spent over %d attempt(s) against %d address(es)",
			ErrBudgetExhausted, c.cfg.MaxElapsed, attempt, len(c.bases))
	}
	return res, fmt.Errorf("%w after %d attempts against %d address(es)",
		ErrAttemptsExhausted, c.cfg.MaxAttempts, len(c.bases))
}

// leg outcomes.
type legKind int

const (
	legDone legKind = iota
	legDrained
	legShed
)

// leg issues one HTTP exchange against base. It returns legShed for
// retryable statuses, legDrained when the stream ended
// interrupted with a resume token (drain, handoff, or an unreadmitted
// preemption), legDone on clean completion, and an error for transport
// failures or terminal statuses.
func (c *Client) leg(ctx context.Context, base string, req Request, resume string, res *Result, gotMeta *bool) (legKind, error) {
	u, body := buildURL(base, req, resume)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, u, strings.NewReader(body))
	if err != nil {
		return legDone, &StatusError{Status: 0, Body: err.Error()}
	}
	if body != "" {
		hreq.Header.Set("Content-Type", "text/plain")
	}
	resp, err := c.cfg.HTTP.Do(hreq)
	if err != nil {
		// The request never produced a response: nothing was consumed
		// server-side, so even a resume token is still intact and the leg
		// can be retried verbatim — this is exactly the window where a
		// drained server is restarting.
		return legDone, &preStreamError{err}
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		// Stream below.
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		res.lastRetryAfter = headerRetryAfter(resp)
		io.Copy(io.Discard, resp.Body)
		return legShed, nil
	default:
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return legDone, &StatusError{Status: resp.StatusCode, Body: string(b)}
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	sawDone := false
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			return legDone, fmt.Errorf("client: bad stream line: %w", err)
		}
		switch probe.Type {
		case "meta":
			var m Meta
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				return legDone, err
			}
			if !*gotMeta {
				res.Meta = m
				*gotMeta = true
			}
		case "solution":
			var s struct {
				Assignment string `json:"assignment"`
			}
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				return legDone, err
			}
			res.Solutions = append(res.Solutions, s.Assignment)
			if c.cfg.OnSolution != nil {
				c.cfg.OnSolution(len(res.Solutions))
			}
		case "done":
			// Decode into a fresh Done: unmarshalling over the previous
			// leg's summary would leave its drained/resume fields behind
			// when this line omits them.
			var d Done
			if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
				return legDone, err
			}
			res.Done = d
			res.Preemptions += d.Preemptions
			sawDone = true
		}
	}
	if err := sc.Err(); err != nil {
		return legDone, err
	}
	if !sawDone {
		return legDone, errors.New("client: stream ended without a done line")
	}
	if res.Done.Resume != "" {
		// Any done line carrying a token is a continuation offer — drain,
		// handoff, or a preemption that could not re-admit.
		return legDrained, nil
	}
	return legDone, nil
}

// buildURL renders the request's query string against base; resume legs
// carry only the token, target, and timeout.
func buildURL(base string, req Request, resume string) (string, string) {
	q := url.Values{}
	q.Set("target", strconv.Itoa(req.Target))
	if req.Timeout > 0 {
		q.Set("timeout", req.Timeout.String())
	}
	if resume != "" {
		q.Set("resume", resume)
		return base + "/v1/sample?" + q.Encode(), ""
	}
	if req.Seed != nil {
		q.Set("seed", strconv.FormatInt(*req.Seed, 10))
	}
	return base + "/v1/sample?" + q.Encode(), req.DIMACS
}

// backoff sleeps the capped exponential delay (with ±25% jitter) before
// the next attempt, respecting a server-provided floor and the context.
func (c *Client) backoff(ctx context.Context, attempt int, floor time.Duration) error {
	d := c.cfg.BaseBackoff << attempt
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	c.mu.Lock()
	jit := time.Duration(c.rng.Int63n(int64(d)/2+1)) - d/4
	c.mu.Unlock()
	d += jit
	if floor > d {
		d = floor
	}
	if c.cfg.Sleep != nil {
		return c.cfg.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// preStreamError marks a transport failure that happened before any
// response byte arrived — retrying the same leg is always safe.
type preStreamError struct{ err error }

func (e *preStreamError) Error() string { return e.err.Error() }
func (e *preStreamError) Unwrap() error { return e.err }

// isTerminal reports whether err is a non-retryable protocol error.
func isTerminal(err error) bool {
	var se *StatusError
	return errors.As(err, &se)
}

// headerRetryAfter parses Retry-After in both RFC 9110 forms: delay-
// seconds (the form satserved emits) and HTTP-date (what proxies and
// gateways in front of a fleet commonly rewrite it to). A negative delay
// or a date already in the past clamps to zero — retry immediately — and
// anything unparseable is treated as absent so the client's own backoff
// floor applies.
func headerRetryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}
