package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/bitblast"
	"repro/internal/cnf"
	"repro/internal/extract"
	"repro/internal/tensor"
)

// Config controls the gradient-descent sampler. Zero fields take the
// defaults noted on each field (the paper's settings where applicable).
type Config struct {
	// BatchSize is the number of candidate solutions learned in parallel
	// per round (paper: 100 … 1,000,000 depending on instance). Default 1024.
	BatchSize int
	// Iterations is the number of GD steps per round (paper: 5). Default 5.
	Iterations int
	// LearningRate is the GD step size (paper: 10). Default 10.
	LearningRate float32
	// Seed seeds the input initialization; rounds advance the stream.
	Seed int64
	// Device selects sequential or data-parallel execution. The zero
	// Device runs on one worker.
	Device tensor.Device
	// InitRange bounds the uniform initialization of the soft inputs V in
	// [-InitRange, +InitRange]. Default 2.
	InitRange float32
	// Momentum adds classical momentum to the GD update
	// (m ← Momentum·m + g; V ← V − lr·m). The paper uses plain GD
	// (Momentum = 0); this is an optimizer extension evaluated by the
	// ablation benchmarks.
	Momentum float32
	// MaxAge is the continuous scheduler's restart cap: a row that has run
	// MaxAge GD steps since its last (re)start without satisfying the
	// formula is recycled with fresh noise instead of left spinning.
	// Default 3×Iterations (a stalled row gets three round-mode budgets
	// before it is declared stuck).
	MaxAge int
	// RoundMode selects the paper's round-synchronous sampling loop for
	// SampleUntil instead of the continuous-batch scheduler: every round
	// re-initializes the full batch, runs Iterations GD steps, then hardens
	// and verifies once. Retained as the compatibility mode and as the
	// differential oracle for the continuous scheduler.
	RoundMode bool
	// Projection lists the CNF variables that define solution identity (the
	// DIMACS "c ind"/"p show" sampling set): retired rows are deduplicated
	// by their assignment restricted to these variables, extracted in the
	// same bit-parallel sweep that verifies the full model against the full
	// CNF. Unique/Solutions then count projected-distinct solutions, each
	// retained as its first full-model witness. Nil defaults to the
	// formula's own declared projection; an empty formula projection means
	// no projection (full-assignment identity). Variables must be within
	// 1..NumVars and duplicate-free.
	Projection []int
	// ClauseWeights scales each CNF clause's contribution to the GD loss
	// (one finite, non-negative entry per clause): the weights aggregate
	// onto the engine's constrained outputs through the extraction's
	// clause-provenance table (Problem.OutputWeights) and reshape the
	// descent — the knob that trades raw throughput for coverage of
	// under-sampled regions. Verification is unaffected: a solution must
	// still satisfy every clause. Nil means uniform weights. The constant
	// loss term of outputs folded at compile time stays unweighted (it
	// carries no gradient).
	ClauseWeights []float64
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 1024
	}
	if c.Iterations <= 0 {
		c.Iterations = 5
	}
	if c.LearningRate == 0 {
		c.LearningRate = 10
	}
	if c.InitRange == 0 {
		c.InitRange = 2
	}
	if c.MaxAge <= 0 {
		c.MaxAge = 3 * c.Iterations
	}
	return c
}

// Stats accumulates sampling progress. Rounds counts round-mode rounds;
// Sweeps/Retired/Stalled describe the continuous scheduler. Candidates is
// the number of candidate trajectories consumed: hardened batch rows
// examined in round mode, retired rows (satisfied or age-capped) in
// continuous mode.
type Stats struct {
	Rounds     int           // GD rounds executed (round mode)
	Iterations int           // total GD iterations
	Sweeps     int           // harden/verify/retire sweeps (continuous mode)
	Candidates int           // candidate trajectories consumed
	Valid      int           // new unique rows that verified against the CNF
	Unique     int           // distinct valid solutions retained
	Retired    int           // rows retired satisfied (continuous mode)
	Stalled    int           // rows recycled at the restart cap (continuous mode)
	Elapsed    time.Duration // wall-clock time inside sampling calls
	FinalLoss  float64       // ℓ2 loss after the last GD iteration
}

// Throughput returns unique solutions per second.
func (s Stats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Unique) / s.Elapsed.Seconds()
}

// EngineStats describes the compiled execution engine (see DESIGN.md).
type EngineStats struct {
	Inputs   int // primary inputs
	Ops      int // fused kernel applications per GD iteration
	ValSlots int // value slots after fusion + dead-code elimination
	GradRegs int // adjoint registers after backward-liveness allocation
	Outputs  int // constrained outputs driven by the loss
	Tile     int // rows per cache tile
	Workers  int // per-worker scratch instances
}

func (e EngineStats) String() string {
	return fmt.Sprintf("inputs=%d ops=%d slots=%d gregs=%d outputs=%d tile=%d workers=%d",
		e.Inputs, e.Ops, e.ValSlots, e.GradRegs, e.Outputs, e.Tile, e.Workers)
}

// stepScratch is one worker's tile-strided value/adjoint storage.
type stepScratch struct {
	vals  []float32 // numSlots × tile
	grads []float32 // numGregs × tile, all-zero between steps (invariant)
}

// Sampler is one sampling session over a compiled Problem: it learns
// diverse satisfying assignments for one transformed SAT instance. The
// Problem is shared and read-only; everything else (V/momentum matrices,
// per-worker scratch, verifier state, dedup pool, stats) is owned by the
// session, so concurrent Samplers over one Problem never interfere. A
// single Sampler is not safe for concurrent use; the batch rows themselves
// are processed in parallel internally according to Config.Device.
type Sampler struct {
	cfg  Config
	prob *Problem

	vmat *tensor.Matrix // soft inputs V ∈ R^{batch×n}
	mmat *tensor.Matrix // momentum accumulator (nil when Momentum == 0)

	scratch []stepScratch       // one per device worker
	loss    []float64           // per-worker loss accumulators
	stepFn  func(w, lo, hi int) // prebound stripe worker (keeps step at 0 allocs)

	// Bit-parallel verification state: hardened inputs live in packed
	// uint64 columns (bit r of cols[i][r/64] is row r's value for input
	// i), verified 64 rows per word sweep by the shared bitblast program
	// through this session's Eval.
	veval  *bitblast.Eval
	colbuf []uint64   // backing store for cols
	cols   [][]uint64 // one packed column per input
	valid  []uint64   // per-word validity masks
	rowbuf []uint64   // one packed candidate row, for hashing/dedup

	// Projected-sampling state (nil projPlan = full-assignment identity).
	// The verify sweep fills projCols with each lane's projected signature
	// (bit r of projCols[k][r/64] is row r's value for projection variable
	// k); dedup hashes prowbuf and compares against psigs on collision.
	projection []int      // CNF variables defining solution identity
	projPlan   []int32    // circuit node per projection variable (-1 = const false)
	projbuf    []uint64   // backing store for projCols
	projCols   [][]uint64 // one packed column per projection variable
	prowbuf    []uint64   // one packed projected row, for hashing/dedup
	psigs      [][]uint64 // packed projected signature per retained solution

	outW []float32 // per-engine-output loss weights (nil = uniform)

	unique map[uint64][]int32 // signature hash → indices into sols (collision chain)
	sols   [][]bool           // unique PI assignments in discovery order
	hits   []int32            // retired-candidate observations per solution
	round  int64
	stats  Stats

	// Continuous-batch scheduler state (scheduler.go). The per-row arrays
	// are allocated lazily on the first ContinuousStep so round-mode
	// sessions pay nothing; contReady is cleared by Round/RoundTrace so an
	// interleaved continuous call re-seeds from the round stream.
	contReady  bool
	track      bool     // stepTile records hardened-sign changes
	stile      int      // scheduler tile (rows per tile, multiple of 64)
	numTiles   int      // fixed tile count covering the batch
	active     []int32  // live rows per tile, compacted to the head
	ages       []int32  // GD steps since the row's last (re)start
	restarts   []uint32 // per-slot restart counter (noise stream key)
	chg        []uint64 // change bitmap: lane's hardened bits may differ from cols
	retiredFl  []bool   // per-sweep retirement flags (scratch)
	dirty      []uint64 // per-word dirty mask for the masked sweep
	staleRet   int      // rows retired since the last new unique
	exhausted  bool     // saturation guard tripped
	activeRows int      // running Σ active (updated at retire/refill)

	// Parallel tick state: every tick phase (sweep, refill, GD step) runs
	// as one RunWorkers dispatch in which each worker claims the tiles of
	// its contiguous range, then steals unclaimed tiles from the most
	// backlogged range. Tiles are word-aligned, so no two workers ever
	// touch the same uint64 of cols/valid/dirty/chg. All closures are
	// prebound — a steady-state tick performs no allocations.
	vevals   []*bitblast.Eval // per-worker verifier scratch
	claims   []uint32         // per-tile claim stamps (CAS on the tick epoch)
	epoch    uint32           // current phase's claim stamp
	curPhase func(w, t int)   // tile body of the phase being dispatched
	curK     int              // workers participating in the current phase
	tileFn   func(w int)      // prebound claim-and-steal worker loop
	sweepPh  func(w, t int)   // prebound phase bodies
	refillPh func(w, t int)
	stepPh   func(w, t int)
	retLanes []int32   // per-tile regions of satisfied lanes, row order
	retCnt   []int32   // satisfied lanes per tile (tick scratch)
	stallCnt []int32   // age-capped lanes per tile (tick scratch)
	refillQ  []int32   // per-tile refill quotas (tick scratch)
	tileLoss []float64 // per-tile GD loss, summed in tile order
}

// New compiles (f, ext) into a Problem and builds a sampler session over
// it. Callers creating several samplers for one instance should compile
// the Problem once and use Problem.NewSampler instead.
func New(f *cnf.Formula, ext *extract.Result, cfg Config) (*Sampler, error) {
	p, err := Compile(f, ext)
	if err != nil {
		return nil, err
	}
	return newSession(p, cfg)
}

// newSession allocates the per-session state over a shared Problem.
func newSession(p *Problem, cfg Config) (*Sampler, error) {
	if p == nil {
		return nil, errors.New("core: nil problem")
	}
	cfg = cfg.withDefaults()
	s := &Sampler{
		cfg:    cfg,
		prob:   p,
		unique: map[uint64][]int32{},
	}
	n := p.eng.numInputs
	batch := cfg.BatchSize
	s.vmat = tensor.NewMatrix(batch, n)
	if cfg.Momentum != 0 {
		s.mmat = tensor.NewMatrix(batch, n)
	}

	workers := cfg.Device.Workers()
	s.scratch = make([]stepScratch, workers)
	for w := range s.scratch {
		s.scratch[w] = stepScratch{
			vals:  make([]float32, p.eng.numSlots*p.tile),
			grads: make([]float32, p.eng.numGregs*p.tile),
		}
	}
	s.loss = make([]float64, workers)
	s.stepFn = func(w, lo, hi int) {
		sc := &s.scratch[w]
		sum := 0.0
		for tlo := lo; tlo < hi; tlo += p.tile {
			nt := p.tile
			if tlo+nt > hi {
				nt = hi - tlo
			}
			sum += s.stepTile(sc, tlo, nt)
		}
		s.loss[w] = sum
	}

	// Scheduler tiles: the continuous scheduler parallelizes whole tiles
	// (its per-tile active regions make arbitrary row stripes impossible).
	// The tile size is a pure function of the batch — never of the device —
	// so compaction targets and per-slot restart streams, and therefore the
	// solution stream for a seed, are identical for any worker count. Large
	// batches split into up to 64 scheduler tiles to keep many-worker
	// devices fed. Tiles are multiples of 64 rows so a tile's packed words
	// (cols/valid/dirty/chg) are exclusively its own — the property that
	// lets tick phases run tiles on different workers with no shared-word
	// races. The GD step re-chunks each scheduler tile into cache tiles
	// (prob.tile) internally, so dropping the old ≤prob.tile cap costs no
	// locality.
	s.stile = ((batch+63)/64 + 63) &^ 63
	s.numTiles = (batch + s.stile - 1) / s.stile

	words := (batch + 63) / 64
	s.veval = p.verify.NewEval()
	s.colbuf = make([]uint64, n*words)
	s.cols = make([][]uint64, n)
	for i := 0; i < n; i++ {
		s.cols[i] = s.colbuf[i*words : (i+1)*words]
	}
	s.valid = make([]uint64, words)
	s.rowbuf = make([]uint64, (n+63)/64)

	// Projection: an explicit config wins; nil inherits the formula's
	// declared sampling set ("c ind"/"p show"). Empty means full identity.
	proj := cfg.Projection
	if proj == nil {
		proj = p.formula.Projection
	}
	if len(proj) > 0 {
		if err := cnf.ValidateProjection(p.formula.NumVars, proj); err != nil {
			return nil, err
		}
		s.projection = append([]int(nil), proj...)
		s.projPlan = p.ext.ProjectionNodes(s.projection)
		np := len(s.projection)
		s.projbuf = make([]uint64, np*words)
		s.projCols = make([][]uint64, np)
		for k := 0; k < np; k++ {
			s.projCols[k] = s.projbuf[k*words : (k+1)*words]
		}
		s.prowbuf = make([]uint64, (np+63)/64)
	}

	if cfg.ClauseWeights != nil {
		w, err := p.OutputWeights(cfg.ClauseWeights)
		if err != nil {
			return nil, err
		}
		s.outW = w
	}
	return s, nil
}

// NewFromCNF transforms f with extract.Transform and builds a sampler.
func NewFromCNF(f *cnf.Formula, cfg Config) (*Sampler, error) {
	p, err := CompileCNF(f)
	if err != nil {
		return nil, err
	}
	return newSession(p, cfg)
}

// Problem returns the shared compiled problem this session runs over.
func (s *Sampler) Problem() *Problem { return s.prob }

// Extraction returns the transformation result backing this sampler.
func (s *Sampler) Extraction() *extract.Result { return s.prob.ext }

// NumInputs returns the primary-input count of the learned function.
func (s *Sampler) NumInputs() int { return s.prob.eng.numInputs }

// Stats returns a snapshot of accumulated statistics.
func (s *Sampler) Stats() Stats { return s.stats }

// EngineStats reports the compiled engine's shape.
func (s *Sampler) EngineStats() EngineStats {
	return EngineStats{
		Inputs:   s.prob.eng.numInputs,
		Ops:      s.prob.eng.OpCount(),
		ValSlots: s.prob.eng.numSlots,
		GradRegs: s.prob.eng.numGregs,
		Outputs:  len(s.prob.eng.outputs),
		Tile:     s.prob.tile,
		Workers:  len(s.scratch),
	}
}

// Solutions returns the unique satisfying primary-input assignments found
// so far, in discovery order. The rows are copies: callers may mutate or
// retain them freely without corrupting the sampler's dedup pool.
func (s *Sampler) Solutions() [][]bool { return s.SolutionsFrom(0) }

// SolutionsFrom returns copies of the unique solutions discovered at index
// from onward, in discovery order — the incremental form of Solutions used
// by streaming drivers to drain only what a round added (from is typically
// the previous UniqueCount).
func (s *Sampler) SolutionsFrom(from int) [][]bool {
	if from < 0 {
		from = 0
	}
	if from >= len(s.sols) {
		return nil
	}
	out := make([][]bool, len(s.sols)-from)
	for i, sol := range s.sols[from:] {
		out[i] = append([]bool(nil), sol...)
	}
	return out
}

// UniqueCount returns the number of unique solutions found so far
// (projected-distinct when a projection is active).
func (s *Sampler) UniqueCount() int { return len(s.sols) }

// Projection returns the CNF variables defining solution identity for this
// session (nil when sampling over the full assignment).
func (s *Sampler) Projection() []int {
	if s.projection == nil {
		return nil
	}
	return append([]int(nil), s.projection...)
}

// SolutionHits returns, per unique solution (same indexing as Solutions),
// how many retired satisfied candidates mapped to it — the empirical
// frequency table behind the quality oracle's uniformity tests. The first
// observation counts, so hits[i] >= 1 and sum(hits) is the number of valid
// retired candidates.
func (s *Sampler) SolutionHits() []int {
	out := make([]int, len(s.hits))
	for i, h := range s.hits {
		out[i] = int(h)
	}
	return out
}

// ProjectedSolutionAt returns the i-th unique solution's projected
// assignment, in projection order (indices [0, UniqueCount())). It returns
// nil when the session has no projection.
func (s *Sampler) ProjectedSolutionAt(i int) []bool {
	if s.projection == nil {
		return nil
	}
	sig := s.psigs[i]
	out := make([]bool, len(s.projection))
	for k := range out {
		out[k] = sig[k>>6]>>(uint(k)&63)&1 == 1
	}
	return out
}

// FullAssignmentAt expands the i-th unique solution into a freshly
// allocated dense CNF assignment without first copying the primary-input
// row — the allocation-lean accessor streaming drivers iterate with
// (indices [0, UniqueCount())).
func (s *Sampler) FullAssignmentAt(i int) []bool {
	return s.prob.AssignmentFromInputs(s.sols[i])
}

// FullAssignment expands a primary-input solution into a dense CNF
// assignment (assign[v-1] = value of CNF variable v).
func (s *Sampler) FullAssignment(sol []bool) []bool {
	return s.prob.AssignmentFromInputs(sol)
}

// Round runs one batch round: initialize V, run Config.Iterations GD steps,
// harden, verify, and fold new unique solutions into the pool. It returns
// the number of new unique solutions discovered this round.
func (s *Sampler) Round() int {
	start := time.Now()
	defer func() { s.stats.Elapsed += time.Since(start) }()
	s.leaveContinuous()
	s.initRound()
	for it := 0; it < s.cfg.Iterations; it++ {
		s.step()
	}
	s.stats.Rounds++
	return s.collect()
}

// RoundTrace runs one round but hardens and collects after every GD
// iteration, returning the cumulative unique-solution count after each
// iteration (index 0 = before any GD step). This regenerates the paper's
// Fig. 3 (left) learning curve.
func (s *Sampler) RoundTrace() []int {
	start := time.Now()
	defer func() { s.stats.Elapsed += time.Since(start) }()
	s.leaveContinuous()
	s.initRound()
	s.stats.Rounds++
	curve := make([]int, 0, s.cfg.Iterations+1)
	s.collect()
	curve = append(curve, s.stats.Unique)
	for it := 0; it < s.cfg.Iterations; it++ {
		s.step()
		s.collect()
		curve = append(curve, s.stats.Unique)
	}
	return curve
}

// SampleUntil samples until target unique solutions are found or the
// timeout elapses (timeout <= 0 means no timeout). It returns the stats
// snapshot at completion. The default driver is the continuous-batch
// scheduler (ContinuousStep); Config.RoundMode selects the paper's
// round-synchronous loop instead.
func (s *Sampler) SampleUntil(target int, timeout time.Duration) Stats {
	if s.cfg.RoundMode {
		return s.sampleUntilRounds(target, timeout)
	}
	deadline := time.Time{}
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for s.stats.Unique < target {
		s.ContinuousStep(target)
		// Saturation: the scheduler's zero-gain guard counts retired-row
		// gain (candidate trajectories consumed without a new unique), not
		// rounds — see Exhausted.
		if s.exhausted {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
	}
	return s.stats
}

// sampleUntilRounds is the round-mode SampleUntil loop (Config.RoundMode).
func (s *Sampler) sampleUntilRounds(target int, timeout time.Duration) Stats {
	deadline := time.Time{}
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	stale := 0
	for s.stats.Unique < target {
		gained := s.Round()
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		// Saturation guard: rounds are independent restarts, so a long run
		// of zero-gain rounds means the reachable solution set is exhausted.
		if gained == 0 {
			stale++
			if stale >= 64 && s.stats.Unique > 0 {
				break
			}
		} else {
			stale = 0
		}
	}
	return s.stats
}

// Step runs a single GD iteration on the current batch without hardening
// or collecting — exposed for benchmarks and incremental drivers that
// want to observe the raw engine. Round/RoundTrace remain the paper's
// sampling loop.
func (s *Sampler) Step() {
	start := time.Now()
	defer func() { s.stats.Elapsed += time.Since(start) }()
	s.step()
}

// initRound fills V with fresh uniform noise.
func (s *Sampler) initRound() {
	seed := s.cfg.Seed + 0x5DEECE66D*s.round
	s.round++
	s.vmat.Randomize(s.cfg.Device, seed, -s.cfg.InitRange, s.cfg.InitRange)
	if s.mmat != nil {
		s.mmat.Fill(0)
	}
}

// step performs one GD iteration as a single fused pass: each worker walks
// its row stripe in cache-sized tiles, and for every tile runs embed →
// forward → loss/adjoint seeding → backward → V-update entirely from
// per-worker scratch. There are no full-matrix traversals and no per-call
// allocations.
func (s *Sampler) step() {
	batch := s.cfg.BatchSize
	for w := range s.loss {
		s.loss[w] = 0
	}
	s.cfg.Device.RunIndexed(batch, s.stepFn)
	total := 0.0
	for _, l := range s.loss {
		total += l
	}
	s.stats.FinalLoss = total + s.prob.eng.constLoss*float64(batch)
	s.stats.Iterations++
}

// stepTile runs the fused pipeline for rows [r0, r0+nt) and returns their
// summed output loss.
func (s *Sampler) stepTile(sc *stepScratch, r0, nt int) float64 {
	e := s.prob.eng
	tile := s.prob.tile
	vals, grads := sc.vals, sc.grads
	lr, mom := s.cfg.LearningRate, s.cfg.Momentum

	// Embedding: P = σ(V) for inputs on constrained paths; dead inputs
	// receive no gradient, so their soft values are never read.
	for t := 0; t < nt; t++ {
		row := s.vmat.Row(r0 + t)
		for _, i := range e.liveInList {
			vals[int(i)*tile+t] = sigmoid32(row[i])
		}
	}
	e.forwardTile(vals, tile, nt)

	// Loss and output-adjoint seeding: dL/dY = 2(Y − T). Registers hold
	// zero between steps, so seeding accumulates without a clearing pass.
	// Clause-weighted sessions scale each output's contribution (L =
	// Σ w·(Y−T)², dL/dY = 2w(Y−T)); the unweighted loop stays branch-free
	// for the common case.
	sum := 0.0
	if s.outW == nil {
		for t := 0; t < nt; t++ {
			for _, o := range e.outputs {
				diff := vals[int(o.slot)*tile+t] - o.target
				sum += float64(diff) * float64(diff)
				grads[int(o.greg)*tile+t] += 2 * diff
			}
		}
	} else {
		for t := 0; t < nt; t++ {
			for oi, o := range e.outputs {
				w := s.outW[oi]
				diff := vals[int(o.slot)*tile+t] - o.target
				sum += float64(w) * float64(diff) * float64(diff)
				grads[int(o.greg)*tile+t] += 2 * w * diff
			}
		}
	}
	e.backwardTile(vals, grads, tile, nt)

	// Input update through the sigmoid embedding (optionally with
	// classical momentum). Reading an input's adjoint re-zeroes it,
	// restoring the engine's register invariant for the next step. In
	// continuous mode (track) the update also records whether any input's
	// hardened sign flipped, so the next sweep repacks and re-verifies only
	// lanes that could have changed.
	n := e.numInputs
	for t := 0; t < nt; t++ {
		r := r0 + t
		vrow := s.vmat.Row(r)
		var mrow []float32
		if s.mmat != nil {
			mrow = s.mmat.Row(r)
		}
		flipped := false
		for i := 0; i < n; i++ {
			var dv float32
			if e.liveIn[i] {
				g := grads[i*tile+t]
				grads[i*tile+t] = 0
				p := vals[i*tile+t]
				dv = g * p * (1 - p)
			}
			if mrow != nil {
				dv += mom * mrow[i]
				mrow[i] = dv
			}
			old := vrow[i]
			nv := old - lr*dv
			vrow[i] = nv
			flipped = flipped || (old > 0) != (nv > 0)
		}
		if s.track && flipped {
			// Word-exclusive in continuous mode: GD runs whole scheduler
			// tiles per worker and tiles are 64-row aligned.
			s.chg[r>>6] |= 1 << (uint(r) & 63)
		}
	}
	return sum
}

// collect hardens V into packed columns, verifies 64 candidate rows per
// word sweep against the original CNF, and folds new unique solutions into
// the pool using 64-bit row hashes (with exact comparison on collision).
// It returns the number of new uniques.
func (s *Sampler) collect() int {
	batch := s.cfg.BatchSize
	n := s.prob.eng.numInputs
	words := (batch + 63) / 64

	// Harden: bit r of cols[i] is V[r][i] > 0.
	for i := range s.colbuf {
		s.colbuf[i] = 0
	}
	for r := 0; r < batch; r++ {
		row := s.vmat.Row(r)
		w, b := r>>6, uint(r)&63
		for i := 0; i < n; i++ {
			if row[i] > 0 {
				s.cols[i][w] |= 1 << b
			}
		}
	}

	if s.projPlan != nil {
		s.veval.VerifyProject(s.cols, words, s.valid, s.projPlan, s.projCols)
	} else {
		s.veval.Verify(s.cols, words, s.valid)
	}
	if tail := uint(batch) & 63; tail != 0 {
		s.valid[words-1] &= (1 << tail) - 1
	}

	newUnique := 0
	s.stats.Candidates += batch
	for r := 0; r < batch; r++ {
		if s.valid[r>>6]>>(uint(r)&63)&1 == 0 {
			continue
		}
		if s.recordRow(r) {
			newUnique++
		}
	}
	s.stats.Unique = len(s.sols)
	return newUnique
}

// recordRow folds the hardened candidate at lane r of the packed columns
// into the dedup pool, reporting whether it was new. Identity is the
// projected signature when a projection is active (the full model at lane
// r was already verified against the full CNF; it is retained as the
// projected class's witness), the full primary-input row otherwise. Every
// observation — new or duplicate — counts toward the matched solution's
// hit tally.
func (s *Sampler) recordRow(r int) bool {
	if s.projPlan != nil {
		return s.recordRowProjected(r)
	}
	h := s.packRow(r)
	if idx, dup := s.findDup(h); dup {
		s.hits[idx]++
		return false
	}
	s.recordSolution(h, r, nil)
	return true
}

// recordRowProjected dedups lane r by its packed projected signature.
func (s *Sampler) recordRowProjected(r int) bool {
	h := s.packProjRow(r)
	for _, idx := range s.unique[h] {
		sig := s.psigs[idx]
		same := true
		for i, w := range s.prowbuf {
			if sig[i] != w {
				same = false
				break
			}
		}
		if same {
			s.hits[idx]++
			return false
		}
	}
	s.recordSolution(h, r, append([]uint64(nil), s.prowbuf...))
	return true
}

// recordSolution appends lane r's primary-input row as a new unique
// solution under hash h, with psig as its projected signature (nil in
// full-identity mode).
func (s *Sampler) recordSolution(h uint64, r int, psig []uint64) {
	s.stats.Valid++
	n := s.prob.eng.numInputs
	sol := make([]bool, n)
	w, b := r>>6, uint(r)&63
	for i := 0; i < n; i++ {
		sol[i] = s.cols[i][w]>>b&1 == 1
	}
	s.unique[h] = append(s.unique[h], int32(len(s.sols)))
	s.sols = append(s.sols, sol)
	s.hits = append(s.hits, 1)
	if psig != nil {
		s.psigs = append(s.psigs, psig)
	}
}

// packRow gathers candidate row r from the packed columns into rowbuf and
// returns its 64-bit hash.
func (s *Sampler) packRow(r int) uint64 {
	w, b := r>>6, uint(r)&63
	for i := range s.rowbuf {
		s.rowbuf[i] = 0
	}
	n := s.prob.eng.numInputs
	for i := 0; i < n; i++ {
		s.rowbuf[i>>6] |= (s.cols[i][w] >> b & 1) << (uint(i) & 63)
	}
	return bitblast.Hash64(s.rowbuf)
}

// packProjRow gathers candidate row r's projected signature from the
// packed projection columns into prowbuf and returns its 64-bit hash.
func (s *Sampler) packProjRow(r int) uint64 {
	w, b := r>>6, uint(r)&63
	for i := range s.prowbuf {
		s.prowbuf[i] = 0
	}
	for k := range s.projCols {
		s.prowbuf[k>>6] |= (s.projCols[k][w] >> b & 1) << (uint(k) & 63)
	}
	return bitblast.Hash64(s.prowbuf)
}

// findDup reports whether the candidate currently in rowbuf is already in
// the pool (returning its index), comparing actual bits on hash hits so a
// 64-bit collision can never merge distinct solutions.
func (s *Sampler) findDup(h uint64) (int32, bool) {
	for _, idx := range s.unique[h] {
		sol := s.sols[idx]
		same := true
		for i, v := range sol {
			if s.rowbuf[i>>6]>>(uint(i)&63)&1 == 1 != v {
				same = false
				break
			}
		}
		if same {
			return idx, true
		}
	}
	return 0, false
}

func sigmoid32(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}

// String describes the sampler configuration.
func (s *Sampler) String() string {
	return fmt.Sprintf("core.Sampler{inputs=%d slots=%d gregs=%d ops=%d batch=%d iters=%d lr=%g tile=%d device=%s}",
		s.NumInputs(), s.prob.eng.numSlots, s.prob.eng.numGregs, s.prob.eng.OpCount(), s.cfg.BatchSize,
		s.cfg.Iterations, s.cfg.LearningRate, s.prob.tile, s.cfg.Device.Name())
}
