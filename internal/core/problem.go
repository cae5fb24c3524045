package core

import (
	"errors"
	"slices"
	"unsafe"

	"repro/internal/bitblast"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/extract"
)

// Problem is the immutable compiled form of one transformed SAT instance:
// the parsed CNF, its extraction result, the fused register-allocated GD
// engine and the bit-parallel CNF verifier, plus the cache tile derived
// from the engine's working set. A Problem carries no per-run state — it
// is safe to share between any number of concurrently running Samplers,
// which is what lets a service compile an instance once and serve many
// sampling sessions from the single artifact (see internal/sampling).
type Problem struct {
	formula *cnf.Formula
	ext     *extract.Result
	eng     *engine
	verify  *bitblast.Program
	tile    int
	key     string // cnf.Formula.ContentHash — the snapshot/cache identity
	// assume is the canonical assumption set this problem was specialized
	// under (nil when unspecialized); key is then
	// cnf.AssumeKey(formula.ContentHash(), assume). See specialize.go.
	assume []cnf.Lit
}

// Compile lowers a transformation result into a shareable Problem: it
// compiles the fused engine, the bitblast verifier, and the cache tile.
// The Problem keeps a copy of ext without its Bindings, which no sampler
// reads and GDSP does not store, and with an exact-size node array, so a
// compiled Problem holds the same data as its decode. The returned Problem is read-only and safe for
// concurrent use.
func Compile(f *cnf.Formula, ext *extract.Result) (*Problem, error) {
	if len(ext.Circuit.Inputs) == 0 {
		return nil, errors.New("core: transformed circuit has no primary inputs")
	}
	kept := *ext
	kept.Bindings = nil
	// Transform grew the node array by append; keep an exact-size copy,
	// as a decode holds, so the unused capacity is not retained.
	c := *ext.Circuit
	c.Nodes = slices.Clone(c.Nodes)
	kept.Circuit = &c
	return newProblem(f, &kept, f.ContentHash(), nil), nil
}

// newProblem compiles the engine, the verifier (with assume resolved as
// pins) and the cache tile from ext's circuit — the one construction
// Compile, Specialize and DecodeProblem share. key must be
// cnf.AssumeKey(f.ContentHash(), assume), which each caller already holds.
func newProblem(f *cnf.Formula, ext *extract.Result, key string, assume []cnf.Lit) *Problem {
	p := &Problem{
		formula: f,
		ext:     ext,
		eng:     compileEngine(ext.Circuit),
		verify:  bitblast.New(ext.Circuit, ext.NodeOf, f, assume),
		key:     key,
		assume:  assume,
	}
	p.tile = tileFor(p.eng)
	return p
}

// tileFor sizes the cache tile (rows per worker pass) so one worker's full
// forward+backward working set (vals + adjoints) stays cache-resident
// regardless of batch size.
func tileFor(e *engine) int {
	const tileTargetBytes = 512 << 10
	tile := tileTargetBytes / (4 * (e.numSlots + e.numGregs))
	if tile < 32 {
		tile = 32
	}
	if tile > 512 {
		tile = 512
	}
	return tile
}

// CompileCNF transforms f with extract.Transform and compiles the result.
func CompileCNF(f *cnf.Formula) (*Problem, error) {
	ext, err := extract.Transform(f)
	if err != nil {
		return nil, err
	}
	return Compile(f, ext)
}

// Formula returns the CNF this problem was compiled from.
func (p *Problem) Formula() *cnf.Formula { return p.formula }

// Key returns the formula's content hash — the identity session snapshots
// are keyed by (RestoreSampler refuses a snapshot whose key differs) and
// the cache key the sampling layer stores this artifact under.
func (p *Problem) Key() string { return p.key }

// Extraction returns the transformation result backing this problem.
func (p *Problem) Extraction() *extract.Result { return p.ext }

// NumInputs returns the primary-input count of the learned function.
func (p *Problem) NumInputs() int { return p.eng.numInputs }

// Tile returns the cache tile (rows per worker pass) derived from the
// engine's working set.
func (p *Problem) Tile() int { return p.tile }

// NewSampler builds a sampler session over this compiled problem. Any
// number of samplers may run concurrently over one Problem; each owns its
// soft-input matrix V, per-worker scratch, verifier state and dedup pool.
func (p *Problem) NewSampler(cfg Config) (*Sampler, error) {
	return newSession(p, cfg)
}

// Shape is the session shape the memory model prices (DESIGN "Memory
// model"): everything a session allocates is fixed per-worker scratch plus
// terms linear in the batch and in the solutions its dedup pool retains.
type Shape struct {
	Workers    int // device workers: per-worker engine and verifier scratch
	Batch      int // GD batch rows
	Target     int // unique solutions requested (0 = unbounded: prices no pool growth)
	Retained   int // solutions already pooled (a checkpoint's UniqueCount)
	Projection int // projection width (0 = full-assignment identity)
}

// Pool returns the most solutions the session's dedup pool holds when its
// final tick ends: a tick starts only below Target and retires at most one
// new solution per batch row, so a stream ends at Target+Batch-1 at most —
// or at what a restored checkpoint already holds, if that is more.
func (sh Shape) Pool() int {
	if sh.Target <= 0 {
		return sh.Retained
	}
	return max(sh.Retained, sh.Target+sh.Batch-1)
}

// MemoryEstimate returns the resident bytes a sampler session of shape sh
// over this problem occupies — the one memory model batch sizing and
// admission control share. The engine's tiled value/adjoint scratch and
// the verifier's sweep scratch — under a projection with room for the
// cone order a worker's Eval may hold of its own — are fixed per-worker
// costs (batch rows stream through them), and the merge's row blocks are
// fixed per session; the soft-input matrix V, the
// packed hardened and projection columns, the validity masks and the
// scheduler's per-row arrays grow with the batch; the dedup pool grows by
// solutionBytes per retained solution. Pure arithmetic on the compiled
// shape: no session needs to exist.
func (p *Problem) MemoryEstimate(sh Shape) int64 {
	n := int64(p.eng.numInputs)
	b := int64(sh.Batch)
	fixed := int64(sh.Workers) * int64(p.tile) * int64(p.eng.numSlots+p.eng.numGregs) * 4
	fixed += int64(sh.Workers) * p.verify.ScratchBytes(sh.Projection > 0) // per-worker bitblast Eval
	fixed += 64 * 8 * ((n + 63) / 64)                                     // merge's row block
	linear := 4 * b * n                                                   // V

	linear += b * n / 8 // packed hardened columns
	linear += b / 8     // validity masks
	linear += 10 * b    // continuous scheduler: ages, restart counters, change/retire flags
	linear += b / 8     // continuous scheduler: dirty-word mask
	if sh.Projection > 0 {
		np := int64(sh.Projection)
		linear += np * ((b + 63) / 64) * 8 // packed projection columns
		fixed += 64 * 8 * ((np + 63) / 64) // merge's projected row block
	}
	return fixed + linear + int64(sh.Pool())*p.solutionBytes(sh.Projection)
}

// RetainedBytes prices the heap this Problem retains from the lengths of
// the arrays it holds: the formula's clauses and literals, the circuit's
// nodes, fanins and input names, the extraction's variable lists, node
// map, the engine's code and the verifier's residual clause slab and cone
// order. The sum
// is scaled by retainSlack for the append growth and size-class rounding
// that compiling leaves and decoding's exact-size allocations do not. A compiled Problem and its GDSP decode price the
// same bytes, and the heap either retains lies within
// [RetainedBytes/2, RetainedBytes] (TestRetainedBytesBoundsHeap in
// internal/sampling). A specialized Problem shares its base's formula and
// node map, so it is charged them again: the price stays a bound.
func (p *Problem) RetainedBytes() int64 {
	f, ext, e := p.formula, p.ext, p.eng
	c := ext.Circuit
	lits := len(f.Projection) + len(p.assume)
	for _, cl := range f.Clauses {
		lits += len(cl)
	}
	fanins := len(c.Inputs)
	for _, nd := range c.Nodes {
		fanins += len(nd.Fanin)
	}
	ints := len(ext.PrimaryInputs) + len(ext.Intermediates) + len(ext.PrimaryOutputs)
	b := int64(len(f.Clauses))*int64(unsafe.Sizeof([]int(nil))) +
		int64(lits)*int64(unsafe.Sizeof(cnf.Lit(0))) +
		int64(len(c.Nodes))*int64(unsafe.Sizeof(circuit.Node{})) +
		int64(fanins)*int64(unsafe.Sizeof(circuit.NodeID(0))) +
		int64(len(c.Outputs))*int64(unsafe.Sizeof(circuit.Output{})) +
		int64(len(c.Inputs))*inputNameBytes +
		int64(ints)*int64(unsafe.Sizeof(0)) +
		int64(len(ext.NodeOf))*int64(unsafe.Sizeof(circuit.NodeID(0))) +
		int64(len(e.code))*int64(unsafe.Sizeof(einstr{})) +
		int64(len(e.outputs))*int64(unsafe.Sizeof(eout{})) +
		int64(e.numInputs)*int64(unsafe.Sizeof(false)+unsafe.Sizeof(int32(0))) + // liveIn, liveInList
		p.verify.Bytes()
	return b * retainSlackNum / retainSlackDen
}

// RetainedBytes prices for what no element size shows.
const (
	// inputNameBytes is an input's "x<var>" name: one 8-byte size class
	// below 10^7 variables.
	inputNameBytes = 8
	// retainSlackNum/retainSlackDen (11/8) covers growth and rounding.
	// Measured, a fresh compile retains 0.77-0.89 of the price and a
	// decode 0.75-0.84 (TestRetainedBytesBoundsHeap logs both).
	retainSlackNum = 11
	retainSlackDen = 8
)

// solutionBytes bounds the heap the dedup pool retains per solution: its
// packed key, stored hash and hit tally, and under a projection its packed
// primary-input witness beside the packed signature key — each at the 2×
// capacity slack append growth can leave — plus the open-addressing index,
// which holds between 2 and 4 int32 slots per row. Half the term is the
// least a pool can hold, so it is tight within a factor of two.
func (p *Problem) solutionBytes(projection int) int64 {
	words := int64(p.eng.numInputs+63) / 64
	if projection > 0 {
		words += int64(projection+63) / 64
	}
	return 2*(8*words+8+4) + 4*4
}

// BatchForBudget returns the largest batch whose MemoryEstimate (no
// projection or pool) fits the byte budget, at least 1: the fixed
// per-worker scratch is paid first and the remainder divided by the
// per-row cost.
func (p *Problem) BatchForBudget(workers int, budget int64) int {
	fixed := p.MemoryEstimate(Shape{Workers: workers})
	perRow := p.MemoryEstimate(Shape{Workers: workers, Batch: 1024}) - fixed
	if perRow <= 0 {
		return 1
	}
	b := (budget - fixed) * 1024 / perRow
	if b < 1 {
		return 1
	}
	return int(b)
}
