package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bitblast"
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
// The returned Problem is read-only and safe for concurrent use.
func Compile(f *cnf.Formula, ext *extract.Result) (*Problem, error) {
	if len(ext.Circuit.Inputs) == 0 {
		return nil, errors.New("core: transformed circuit has no primary inputs")
	}
	p := &Problem{
		formula: f,
		ext:     ext,
		eng:     compileEngine(ext.Circuit),
		verify:  ext.Verifier(f),
		key:     f.ContentHash(),
	}
	p.tile = tileFor(p.eng)
	return p, nil
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
// V/momentum matrices, per-worker scratch, verifier state and dedup pool.
func (p *Problem) NewSampler(cfg Config) (*Sampler, error) {
	return newSession(p, cfg)
}

// AssignmentFromInputs expands a primary-input solution into a dense CNF
// assignment (assign[v-1] = value of CNF variable v). On a specialized
// problem, assumptions on variables without circuit support override the
// nodeless default-false convention — everything with a node is already
// forced by the folded constants and constraints.
func (p *Problem) AssignmentFromInputs(sol []bool) []bool {
	assign := p.ext.AssignmentFromInputs(p.formula.NumVars, sol)
	for _, l := range p.assume {
		if _, ok := p.ext.NodeOf[l.Var()]; !ok {
			assign[l.Var()-1] = l.Positive()
		}
	}
	return assign
}

// OutputWeights aggregates per-clause loss weights onto the engine's
// constrained outputs through the extraction's provenance table
// (extract.Result.OutputSources): an output's weight is the mean weight of
// the CNF clauses its constraint consumed. Outputs without recorded
// provenance (or compiled from a pre-provenance extraction result) keep
// weight 1, as do clauses absorbed into intermediate resolutions — the
// weighting is a loss-shaping knob, not an exact clause decomposition.
// clauseWeights must have one finite, non-negative entry per CNF clause.
func (p *Problem) OutputWeights(clauseWeights []float64) ([]float32, error) {
	if len(clauseWeights) != p.formula.NumClauses() {
		return nil, fmt.Errorf("core: %d clause weights for %d clauses",
			len(clauseWeights), p.formula.NumClauses())
	}
	for i, w := range clauseWeights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("core: clause weight %d is %v (want finite, >= 0)", i, w)
		}
	}
	out := make([]float32, len(p.eng.outputs))
	for k, o := range p.eng.outputs {
		out[k] = 1
		if int(o.src) >= len(p.ext.OutputSources) {
			continue
		}
		srcs := p.ext.OutputSources[o.src]
		if len(srcs) == 0 {
			continue
		}
		sum := 0.0
		for _, ci := range srcs {
			sum += clauseWeights[ci]
		}
		out[k] = float32(sum / float64(len(srcs)))
	}
	return out, nil
}

// Shape is the session shape the memory model prices (DESIGN "Memory
// model"): everything a session allocates is fixed per-worker scratch plus
// terms linear in the batch and in the solutions its dedup pool retains.
type Shape struct {
	Workers    int  // device workers: per-worker engine and verifier scratch
	Batch      int  // GD batch rows
	Target     int  // unique solutions requested (0 = unbounded: prices no pool growth)
	Retained   int  // solutions already pooled (a checkpoint's UniqueCount)
	Projection int  // projection width (0 = full-assignment identity)
	Momentum   bool // momentum accumulator beside V
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
// the verifier's sweep scratch are fixed per-worker costs (batch rows
// stream through them); the soft-input matrix V (plus momentum), the
// packed hardened and projection columns, the validity masks and the
// scheduler's per-row arrays grow with the batch; the dedup pool grows by
// solutionBytes per retained solution. Pure arithmetic on the compiled
// shape: no session needs to exist.
func (p *Problem) MemoryEstimate(sh Shape) int64 {
	n := int64(p.eng.numInputs)
	b := int64(sh.Batch)
	fixed := int64(sh.Workers) * int64(p.tile) * int64(p.eng.numSlots+p.eng.numGregs) * 4
	fixed += int64(sh.Workers) * p.verify.ScratchBytes() // per-worker bitblast Eval
	linear := 4 * b * n                                  // V
	if sh.Momentum {
		linear += 4 * b * n
	}
	linear += b * n / 8 // packed hardened columns
	linear += b / 8     // validity masks
	linear += 10 * b    // continuous scheduler: ages, restart counters, change/retire flags
	linear += b / 8     // continuous scheduler: dirty-word mask
	if sh.Projection > 0 {
		linear += int64(sh.Projection) * ((b + 63) / 64) * 8 // packed projection columns
	}
	return fixed + linear + int64(sh.Pool())*p.solutionBytes(sh.Projection)
}

// solutionBytes bounds the heap recordSolution retains per pooled solution:
// the []bool primary-input row, its sols slice header and hit tally (at the
// 2× capacity slack append growth can leave), one hash-chain map entry and
// its one-element chain, plus, under a projection, the packed signature and
// its psigs header.
func (p *Problem) solutionBytes(projection int) int64 {
	b := allocBytes(int64(p.eng.numInputs)) + 2*(24+4)
	// A map slot (8 B key + 24 B chain header + 1 control byte) at the 7/16
	// occupancy a table drops to when it grows: 33·16/7 ≈ 76 B.
	b += 76 + allocBytes(4)
	if projection > 0 {
		b += allocBytes(int64(projection+63)/64*8) + 2*24
	}
	return b
}

// allocBytes bounds the heap one pointer-free allocation of size bytes
// occupies: the runtime rounds small objects up to a size class at most a
// quarter larger (a 16-byte block below 16 B) and large ones to whole pages.
func allocBytes(size int64) int64 {
	return size + size/4 + 16
}

// BatchForBudget returns the largest batch whose MemoryEstimate (no
// momentum, projection or pool) fits the byte budget, at least 1: the fixed
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
