package sampling

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/store"
)

// HashFormula returns the content hash of a CNF — the cache key under
// which its compiled Problem is stored. It is cnf.Formula.ContentHash
// (variable count + exact clause/literal sequence + declared projection),
// the same identity core.Problem.Key reports and session snapshots are
// keyed by, so a checkpoint's key always resolves through this cache.
func HashFormula(f *cnf.Formula) string {
	return f.ContentHash()
}

// CompilerStats snapshots the cache counters. The snapshot is taken under
// one lock acquisition, so its fields are mutually consistent even while
// concurrent Compile calls run: ResidentBytes is exactly the sum over the
// Entries whose compile has completed (in-flight entries contribute zero
// until their artifact exists).
type CompilerStats struct {
	Hits          int64 // Compile calls served from the memory cache (or an in-flight compile)
	Misses        int64 // Compile calls that fell past the memory tier (disk load or full compile)
	Evictions     int64 // entries dropped by the LRU policy
	Entries       int   // problems currently cached (including in-flight)
	ResidentBytes int64 // approximate bytes held by completed cached problems
	DiskHits      int64 // artifacts decoded from the durable store instead of compiled
	DiskMisses    int64 // store consultations that fell through to a full compile
	DiskBytes     int64 // cumulative encoded bytes loaded from the durable store
}

// DefaultCacheCapacity is the Compiler's LRU capacity when none is given.
const DefaultCacheCapacity = 64

// Compiler produces shared, immutable Problems behind a content-hash-keyed
// LRU cache. Concurrent Compile calls for the same CNF are deduplicated:
// one goroutine runs the transformation while the rest wait for the same
// artifact (single flight), so a traffic burst on a new instance costs one
// compile, not one per request. Compiler is safe for concurrent use.
type Compiler struct {
	mu         sync.Mutex
	capacity   int
	byteBudget int64      // 0 = entry-count bound only
	lru        *list.List // MRU at front; element values are *cacheEntry
	byKey      map[string]*list.Element
	hits       int64
	misses     int64
	evictions  int64
	resident   int64 // sum of bytes over completed cached entries

	// store, when set, is the durable second tier: memory miss → decode
	// from disk → compile, with compiled artifacts written back so peers
	// sharing the directory (and future restarts of this process) skip the
	// compile entirely. Counters live under the same mu as the memory tier
	// so Stats stays a single consistent snapshot.
	store      *store.Store
	diskHits   int64
	diskMisses int64
	diskBytes  int64
}

// cacheEntry is one cached (possibly in-flight) compilation. ready is
// closed when prob/err are final; waiters hold the entry pointer, so LRU
// eviction of an in-flight entry never strands them.
type cacheEntry struct {
	key   string
	ready chan struct{}
	prob  *Problem
	err   error
	bytes int64 // resident estimate, set (under the Compiler lock) on success
}

// NewCompiler returns a Compiler whose cache holds up to capacity compiled
// problems (capacity <= 0 selects DefaultCacheCapacity).
func NewCompiler(capacity int) *Compiler {
	return NewCompilerBudget(capacity, 0)
}

// NewCompilerBudget additionally bounds the cache by approximate resident
// bytes: entries are evicted (LRU first) while the completed entries' total
// exceeds byteBudget, so a cache full of large artifacts cannot pin
// unbounded memory no matter how generous the entry-count capacity is.
// byteBudget <= 0 disables the byte bound. A single entry larger than the
// budget is kept — serving it beats compile thrash — so the bound is
// "budget or one artifact, whichever is larger".
func NewCompilerBudget(capacity int, byteBudget int64) *Compiler {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Compiler{
		capacity:   capacity,
		byteBudget: byteBudget,
		lru:        list.New(),
		byKey:      map[string]*list.Element{},
	}
}

// WithStore attaches a durable store as the compiler's second tier and
// returns the compiler for chaining. Call before the compiler is shared
// across goroutines (it swaps an unguarded field); a nil store leaves the
// compiler memory-only.
func (c *Compiler) WithStore(s *store.Store) *Compiler {
	c.store = s
	return c
}

// StoreStats returns the durable tier's own view of its directory (the
// zero Stats when no store is attached).
func (c *Compiler) StoreStats() store.Stats {
	if c.store == nil {
		return store.Stats{}
	}
	return c.store.Stats()
}

// evictLocked enforces both cache bounds, never evicting keep. Caller
// holds c.mu.
func (c *Compiler) evictLocked(keep *list.Element) {
	// Entry-count bound: plain LRU, in-flight entries included (their
	// waiters hold the entry pointer and are never stranded).
	for c.lru.Len() > c.capacity {
		back := c.lru.Back()
		if back == keep {
			break
		}
		c.removeLocked(back)
	}
	if c.byteBudget <= 0 {
		return
	}
	// Byte bound: evict completed entries only. An in-flight entry has
	// bytes == 0 — removing it frees nothing and would break its
	// single-flight slot (concurrent compiles of the same formula would
	// restart), so the walk skips it.
	for el := c.lru.Back(); el != nil && c.resident > c.byteBudget && c.lru.Len() > 1; {
		prev := el.Prev()
		if el != keep && el.Value.(*cacheEntry).bytes > 0 {
			c.removeLocked(el)
		}
		el = prev
	}
}

// removeLocked drops one cached entry and settles the accounting. Caller
// holds c.mu.
func (c *Compiler) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.byKey, e.key)
	c.resident -= e.bytes
	c.evictions++
}

// Compile returns the shared Problem for f, compiling it at most once per
// cache residency. The returned Problem is immutable and safe to share
// across concurrent sessions.
func (c *Compiler) Compile(f *cnf.Formula) (*Problem, error) {
	key := HashFormula(f)
	return c.getOrBuild(key, func() (*Problem, error) {
		// Second tier: a peer (or a previous life of this process) may have
		// already paid for this compile. Decode skips extraction and fusion,
		// so a disk hit is a small fraction of a compile (see the -exp cache
		// bench row).
		if c.store != nil {
			if prob, ok := c.loadFromStore(key); ok {
				return prob, nil
			}
		}
		prob, err := compileProblem(f, key)
		if err == nil {
			c.writeBack(prob)
		}
		return prob, err
	})
}

// CompileAssume returns the shared Problem for f specialized under the
// assumption literals, keyed by cnf.AssumeKey(HashFormula(f), assume). The
// specialized artifact tiers exactly like a base compile — memory LRU,
// durable store, single flight — and building it prefers re-specializing
// the (possibly cached) base artifact over any recompilation: on a store-
// warm base key the marginal cost is one core.Specialize pass. An empty
// assumption set is a plain Compile. Invalid assumptions (out of range,
// contradictory) wrap core.ErrBadAssume.
func (c *Compiler) CompileAssume(f *cnf.Formula, assume []cnf.Lit) (*Problem, error) {
	canon := cnf.CanonicalAssume(assume)
	if len(canon) == 0 {
		return c.Compile(f)
	}
	if err := cnf.ValidateAssumptions(f.NumVars, canon); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrBadAssume, err)
	}
	key := cnf.AssumeKey(HashFormula(f), canon)
	return c.getOrBuild(key, func() (*Problem, error) {
		if c.store != nil {
			if prob, ok := c.loadFromStore(key); ok {
				return prob, nil
			}
		}
		// Resolve the base artifact through the normal tiers (memory →
		// store → compile; its key differs from ours, so no deadlock), then
		// specialize it. The specialized problem is written back under its
		// own key so peers skip even the specialize pass.
		base, err := c.Compile(f)
		if err != nil {
			return nil, err
		}
		cp, err := core.Specialize(base.core, canon)
		if err != nil {
			return nil, err
		}
		prob := &Problem{key: key, formula: cp.Formula(), core: cp}
		c.writeBack(prob)
		return prob, nil
	})
}

// getOrBuild is the single-flight cache core shared by Compile and
// CompileAssume: one builder per key per cache residency, everyone else
// waits on the same entry.
func (c *Compiler) getOrBuild(key string, build func() (*Problem, error)) (*Problem, error) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		e := el.Value.(*cacheEntry)
		c.mu.Unlock()
		<-e.ready
		return e.prob, e.err
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	el := c.lru.PushFront(e)
	c.byKey[key] = el
	c.misses++
	c.evictLocked(el)
	c.mu.Unlock()

	prob, err := build()

	c.mu.Lock()
	e.prob, e.err = prob, err
	switch {
	case err != nil:
		// Failed compiles are not cached: drop the entry (if the LRU still
		// holds it) so a later Compile can retry.
		if cur, ok := c.byKey[key]; ok && cur == el {
			c.lru.Remove(cur)
			delete(c.byKey, key)
		}
	default:
		// Record the artifact's resident estimate, but only while the entry
		// is still cached — a concurrent burst may have evicted it in
		// flight, and an evicted entry must not count toward residency.
		// Sizes are only known at completion, so the byte bound is
		// re-enforced here (the just-completed entry survives even when it
		// alone exceeds the budget).
		if cur, ok := c.byKey[key]; ok && cur == el {
			e.bytes = residentEstimate(prob)
			c.resident += e.bytes
			c.evictLocked(el)
		}
	}
	c.mu.Unlock()
	close(e.ready)
	return prob, err
}

// writeBack persists a compiled (or specialized) artifact to the durable
// tier, best-effort: a full store or unwritable directory degrades to
// compile-every-time, it never fails the request. No-op without a store.
func (c *Compiler) writeBack(p *Problem) {
	if c.store == nil {
		return
	}
	if blob, err := p.core.MarshalBinary(); err == nil {
		c.store.Put(p.key, blob)
	}
}

// residentEstimate approximates the bytes a cached Problem keeps resident:
// the compiled engine's fixed single-worker working set (tile × value/
// adjoint slots, via the core memory model) — the dominant per-artifact
// cost, since the program arrays scale with the same slot counts.
func residentEstimate(p *Problem) int64 {
	return p.core.MemoryEstimate(core.Shape{Workers: 1})
}

// Lookup returns the cached Problem for a content-hash key without
// compiling anything — the server's submit-by-key fast path and the
// resume leg's artifact resolution. A memory-resident entry counts as a
// hit and is refreshed in the LRU; on a memory miss the durable store is
// consulted (when attached), so a cold replica can serve a key-hit
// without the client re-uploading the DIMACS body. Only a key absent
// from both tiers (or whose cached compile failed) reports ok == false.
// Lookup blocks only when the keyed compile is still in flight.
func (c *Compiler) Lookup(key string) (prob *Problem, ok bool) {
	c.mu.Lock()
	el, found := c.byKey[key]
	if !found {
		c.mu.Unlock()
		if c.store == nil {
			return nil, false
		}
		prob, ok = c.loadFromStore(key)
		if !ok {
			return nil, false
		}
		c.installLoaded(key, prob)
		return prob, true
	}
	c.lru.MoveToFront(el)
	c.hits++
	e := el.Value.(*cacheEntry)
	c.mu.Unlock()
	<-e.ready
	if e.err != nil {
		return nil, false
	}
	return e.prob, true
}

// LookupAssume resolves a specialized Problem from a base content-hash key
// plus assumption literals without requiring the formula body — the
// ?key=&assume= fast path. Resolution order: the specialized key through
// both tiers (a hit means some request already validated these pins), then
// the base key through both tiers followed by a fresh specialize, which is
// installed in memory and written back to the store under the specialized
// key. ok == false with a nil error means neither key resolved (a miss the
// server maps to 404); a non-nil error wraps core.ErrBadAssume — the base
// artifact exists but the assumptions are invalid for it (a 400).
func (c *Compiler) LookupAssume(baseKey string, assume []cnf.Lit) (*Problem, bool, error) {
	canon := cnf.CanonicalAssume(assume)
	if len(canon) == 0 {
		p, ok := c.Lookup(baseKey)
		return p, ok, nil
	}
	specKey := cnf.AssumeKey(baseKey, canon)
	if p, ok := c.Lookup(specKey); ok {
		return p, true, nil
	}
	base, ok := c.Lookup(baseKey)
	if !ok {
		return nil, false, nil
	}
	cp, err := core.Specialize(base.core, canon)
	if err != nil {
		return nil, false, err
	}
	prob := &Problem{key: specKey, formula: cp.Formula(), core: cp}
	c.installLoaded(specKey, prob)
	c.writeBack(prob)
	return prob, true, nil
}

// loadFromStore tries the durable tier for one key, counting the outcome.
// A blob the trailer accepts but the GDSP decode rejects (foreign codec
// version, misfiled key) is quarantined so it cannot shadow a recompile
// forever.
func (c *Compiler) loadFromStore(key string) (*Problem, bool) {
	miss := func() (*Problem, bool) {
		c.mu.Lock()
		c.diskMisses++
		c.mu.Unlock()
		return nil, false
	}
	blob, ok := c.store.Get(key)
	if !ok {
		return miss()
	}
	cp, err := core.DecodeProblem(blob)
	if err != nil {
		c.store.Quarantine(key, err.Error())
		return miss()
	}
	if cp.Key() != key {
		c.store.Quarantine(key, "artifact filed under a foreign key")
		return miss()
	}
	c.mu.Lock()
	c.diskHits++
	c.diskBytes += int64(len(blob))
	c.mu.Unlock()
	return &Problem{key: key, formula: cp.Formula(), core: cp}, true
}

// installLoaded caches a store-loaded Problem as a completed entry so
// subsequent Compiles and Lookups hit memory. Double-checked: a compile
// or peer Lookup that registered the key first wins and this copy is
// dropped (Problems are immutable and content-addressed, so either copy
// serves identically).
func (c *Compiler) installLoaded(key string, prob *Problem) {
	e := &cacheEntry{key: key, ready: make(chan struct{}), prob: prob}
	close(e.ready)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.byKey[key]; exists {
		return
	}
	el := c.lru.PushFront(e)
	c.byKey[key] = el
	e.bytes = residentEstimate(prob)
	c.resident += e.bytes
	c.evictLocked(el)
}

// Stats returns a snapshot of the cache counters.
func (c *Compiler) Stats() CompilerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CompilerStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Entries:       c.lru.Len(),
		ResidentBytes: c.resident,
		DiskHits:      c.diskHits,
		DiskMisses:    c.diskMisses,
		DiskBytes:     c.diskBytes,
	}
}

// compileProblem runs the uncached pipeline: extract.Transform then the
// engine/verifier compile.
func compileProblem(f *cnf.Formula, key string) (*Problem, error) {
	ext, err := extract.Transform(f)
	if err != nil {
		return nil, err
	}
	cp, err := core.Compile(f, ext)
	if err != nil {
		return nil, err
	}
	return &Problem{key: key, formula: f, core: cp}, nil
}

// CompileProblem compiles f without a cache — the one-shot path for
// callers that don't need sharing.
func CompileProblem(f *cnf.Formula) (*Problem, error) {
	return compileProblem(f, HashFormula(f))
}
