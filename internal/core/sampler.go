// Package core implements the paper's primary contribution: GPU-style
// gradient-based SAT sampling over the multi-level, multi-output Boolean
// function recovered from a CNF by the transformation algorithm
// (internal/extract). Each logic gate is relaxed to its probabilistic form
// (the paper's Table I), primary inputs become a batch of real-valued rows
// embedded through a sigmoid, and gradient descent on the ℓ2 loss against
// the output targets drives every batch row toward an independent
// satisfying assignment. Hardened rows are verified against the original
// CNF and deduplicated, yielding unique valid solutions.
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
	// MaxAge is the continuous scheduler's restart cap: a row that has run
	// MaxAge GD steps since its last (re)start without satisfying the
	// formula is recycled with fresh noise instead of left spinning.
	// Default 3×Iterations (a stalled row gets three rounds' budgets before
	// it is declared stuck).
	MaxAge int
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

// Stats accumulates sampling progress. Rounds counts the paper's round
// loop (Round, RoundTrace); Sweeps/Retired/Stalled describe the continuous
// scheduler. Candidates is the number of candidate trajectories consumed:
// hardened batch rows examined by a round, retired rows (satisfied or
// age-capped) by the scheduler.
type Stats struct {
	Rounds     int           // GD rounds executed (round loop)
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
// Problem is shared and read-only; everything else (the soft-input matrix V,
// per-worker scratch, verifier state, dedup pool, stats) is owned by the
// session, so concurrent Samplers over one Problem never interfere. A
// single Sampler is not safe for concurrent use; the batch rows themselves
// are processed in parallel internally according to Config.Device.
type Sampler struct {
	cfg  Config
	prob *Problem

	vmat *tensor.Matrix // soft inputs V ∈ R^{batch×n}

	scratch []stepScratch // one per device worker

	// Bit-parallel verification state: hardened inputs live in packed
	// uint64 columns (bit r of cols[i][r/64] is row r's value for input
	// i), verified 64 rows per word sweep by the shared bitblast program
	// through each worker's Eval (vevals).
	colbuf []uint64   // backing store for cols
	cols   [][]uint64 // one packed column per input
	valid  []uint64   // per-word validity masks
	inRows rowBlock   // one word's lanes as packed input rows, for dedup
	solbuf []bool     // one unpacked primary-input row (FullAssignmentAt)

	// Projected-sampling state (nil projPlan = full-assignment identity).
	// The verify sweep fills projCols with each lane's projected signature
	// (bit r of projCols[k][r/64] is row r's value for projection variable
	// k); the pool is keyed by projRows' rows and each class keeps its
	// first primary-input row in wit.
	projection []int      // CNF variables defining solution identity
	projPlan   []int32    // circuit node per projection variable
	projbuf    []uint64   // backing store for projCols
	projCols   [][]uint64 // one packed column per projection variable
	projRows   rowBlock   // one word's lanes as packed projected rows, for dedup
	wit        []uint64   // packed primary-input witness per class, inRows-sized rows

	// Dedup pool: unique keys (input rows, or projected rows under a
	// projection) in discovery order.
	pool  *bitblast.RowSet
	hits  []int32 // retired-candidate observations per solution
	round int64
	stats Stats

	// Tile engine state (scheduler.go), shared by the continuous scheduler
	// and the round loop. contReady is cleared by Round/RoundTrace so an
	// interleaved continuous call re-seeds from the round stream.
	contReady  bool
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

	// Parallel tick state: every tick phase (pack, sweep, refill, GD step)
	// runs as one RunWorkers dispatch in which each worker claims the tiles
	// of its contiguous range, then steals unclaimed tiles from the most
	// backlogged range. Tiles are word-aligned, so no two workers ever
	// touch the same uint64 of cols/valid/dirty/chg. All closures are
	// prebound — a steady-state tick performs no allocations.
	vevals   []*bitblast.Eval // per-worker verifier scratch
	claims   []uint32         // per-tile claim stamps (CAS on the tick epoch)
	epoch    uint32           // current phase's claim stamp
	curPhase func(w, t int)   // tile body of the phase being dispatched
	curK     int              // workers participating in the current phase
	tileFn   func(w int)      // prebound claim-and-steal worker loop
	packPh   func(w, t int)   // prebound phase bodies
	sweepPh  func(w, t int)
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
		cfg:  cfg,
		prob: p,
	}
	n := p.eng.numInputs
	batch := cfg.BatchSize
	s.vmat = tensor.NewMatrix(batch, n)

	s.scratch = make([]stepScratch, cfg.Device.Workers())
	for w := range s.scratch {
		s.scratch[w] = stepScratch{
			vals:  make([]float32, p.eng.numSlots*p.tile),
			grads: make([]float32, p.eng.numGregs*p.tile),
		}
	}

	// Scheduler tiles: every GD step and every verify pass runs whole tiles
	// (the scheduler's per-tile active regions make arbitrary row stripes
	// impossible). The tile size is a pure function of the batch — never of
	// the device — so compaction targets, per-slot restart streams and the
	// tile-ordered loss sum, and therefore the solution stream and stats for
	// a seed, are identical for any worker count. Large batches split into
	// up to 64 scheduler tiles to keep many-worker devices fed. Tiles are
	// multiples of 64 rows so a tile's packed words (cols/valid/dirty/chg)
	// are exclusively its own — the property that lets tick phases run
	// tiles on different workers with no shared-word races. The GD step
	// re-chunks each scheduler tile into cache tiles (prob.tile) internally.
	s.stile = ((batch+63)/64 + 63) &^ 63
	s.numTiles = (batch + s.stile - 1) / s.stile

	words := (batch + 63) / 64
	s.colbuf = make([]uint64, n*words)
	s.cols = make([][]uint64, n)
	for i := 0; i < n; i++ {
		s.cols[i] = s.colbuf[i*words : (i+1)*words]
	}
	s.valid = make([]uint64, words)
	s.inRows = newRowBlock(n)
	s.solbuf = make([]bool, n)
	keyWidth := n

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
		s.projRows = newRowBlock(np)
		keyWidth = np
	}
	s.pool = bitblast.NewRowSet(keyWidth, 0)

	s.ages = make([]int32, batch)
	s.restarts = make([]uint32, batch)
	s.chg = make([]uint64, words)
	s.retiredFl = make([]bool, batch)
	s.dirty = make([]uint64, words)
	s.active = make([]int32, s.numTiles)
	s.claims = make([]uint32, s.numTiles)
	s.retLanes = make([]int32, s.numTiles*s.stile)
	s.retCnt = make([]int32, s.numTiles)
	s.stallCnt = make([]int32, s.numTiles)
	s.refillQ = make([]int32, s.numTiles)
	s.tileLoss = make([]float64, s.numTiles)
	s.activateAll()
	// One verifier scratch per worker, so pack phases verify tiles
	// concurrently.
	s.vevals = make([]*bitblast.Eval, len(s.scratch))
	for w := range s.vevals {
		s.vevals[w] = p.verify.NewEval(s.projPlan)
	}
	// Prebound method values: dispatching a phase stores one of these in
	// curPhase — no per-tick closure allocation.
	s.packPh = s.packTile
	s.sweepPh = s.sweepTile
	s.refillPh = s.refillTile
	s.stepPh = s.stepActiveTile
	s.tileFn = s.tileWorker
	return s, nil
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
	if from >= s.pool.Len() {
		return nil
	}
	out := make([][]bool, s.pool.Len()-from)
	for i := range out {
		out[i] = bitblast.UnpackRow(make([]bool, len(s.solbuf)), s.inputRow(from+i))
	}
	return out
}

// UniqueCount returns the number of unique solutions found so far
// (projected-distinct when a projection is active).
func (s *Sampler) UniqueCount() int { return s.pool.Len() }

// inputRow returns the i-th unique solution's packed primary-input row.
func (s *Sampler) inputRow(i int) []uint64 {
	if s.projPlan == nil {
		return s.pool.Row(i)
	}
	w := s.inRows.words
	return s.wit[i*w : (i+1)*w]
}

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

// FullAssignmentAt expands the i-th unique solution into a freshly
// allocated dense CNF assignment, unpacking the primary-input row into
// session scratch rather than a copy — the allocation-lean accessor
// streaming drivers iterate with (indices [0, UniqueCount())).
func (s *Sampler) FullAssignmentAt(i int) []bool {
	return s.FullAssignment(bitblast.UnpackRow(s.solbuf, s.inputRow(i)))
}

// FullAssignment expands a primary-input solution into a dense CNF
// assignment (assign[v-1] = value of CNF variable v). On a specialized
// problem the pins are already folded into the circuit's constants and
// constraints.
func (s *Sampler) FullAssignment(sol []bool) []bool {
	return s.prob.ext.AssignmentFromInputs(sol)
}

// Round runs one batch round of the paper's loop on the tile engine:
// reseed the whole batch, run Config.Iterations GD steps over every tile,
// then harden, verify, and fold new unique solutions into the pool. It
// returns the number of new unique solutions discovered this round.
func (s *Sampler) Round() int {
	start := time.Now()
	defer func() { s.stats.Elapsed += time.Since(start) }()
	s.initRound()
	for it := 0; it < s.cfg.Iterations; it++ {
		s.stepActive()
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
	s.initRound()
	s.stats.Rounds++
	curve := make([]int, 0, s.cfg.Iterations+1)
	s.collect()
	curve = append(curve, s.stats.Unique)
	for it := 0; it < s.cfg.Iterations; it++ {
		s.stepActive()
		s.collect()
		curve = append(curve, s.stats.Unique)
	}
	return curve
}

// SampleUntil drives the continuous-batch scheduler (ContinuousStep) until
// target unique solutions are found or the timeout elapses (timeout <= 0
// means no timeout). It returns the stats snapshot at completion.
func (s *Sampler) SampleUntil(target int, timeout time.Duration) Stats {
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

// SampleRounds is SampleUntil over the paper's round loop: it runs Round
// until target unique solutions are found or the timeout elapses (timeout
// <= 0 means no timeout), and stops early after 64 consecutive zero-gain
// rounds once the pool is non-empty. It returns the stats snapshot at
// completion.
func (s *Sampler) SampleRounds(target int, timeout time.Duration) Stats {
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

// initRound reseeds the whole batch from the round stream: V gets fresh
// uniform noise and every tile is fully active. It invalidates the
// scheduler view, so the next ContinuousStep re-seeds.
func (s *Sampler) initRound() {
	seed := s.cfg.Seed + 0x5DEECE66D*s.round
	s.round++
	s.vmat.Randomize(s.cfg.Device, seed, -s.cfg.InitRange, s.cfg.InitRange)
	s.activateAll()
	s.contReady = false
}

// stepTile runs the fused pipeline for rows [r0, r0+nt) and returns their
// summed output loss.
func (s *Sampler) stepTile(sc *stepScratch, r0, nt int) float64 {
	e := s.prob.eng
	tile := s.prob.tile
	vals, grads := sc.vals, sc.grads
	lr := s.cfg.LearningRate

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
	sum := 0.0
	for t := 0; t < nt; t++ {
		for _, o := range e.outputs {
			diff := vals[int(o.slot)*tile+t] - o.target
			sum += float64(diff) * float64(diff)
			grads[int(o.greg)*tile+t] += 2 * diff
		}
	}
	e.backwardTile(vals, grads, tile, nt)

	// Input update through the sigmoid embedding. Reading an input's
	// adjoint re-zeroes it, restoring the engine's register invariant for
	// the next step. The update also records whether any input's hardened
	// sign flipped, so the next sweep repacks and re-verifies only lanes
	// that could have changed.
	n := e.numInputs
	for t := 0; t < nt; t++ {
		r := r0 + t
		vrow := s.vmat.Row(r)
		flipped := false
		for i := 0; i < n; i++ {
			var dv float32
			if e.liveIn[i] {
				g := grads[i*tile+t]
				grads[i*tile+t] = 0
				p := vals[i*tile+t]
				dv = g * p * (1 - p)
			}
			old := vrow[i]
			nv := old - lr*dv
			vrow[i] = nv
			flipped = flipped || (old > 0) != (nv > 0)
		}
		if flipped {
			// Word-exclusive: GD runs whole scheduler tiles per worker and
			// tiles are 64-row aligned.
			s.chg[r>>6] |= 1 << (uint(r) & 63)
		}
	}
	return sum
}

// collect hardens and verifies the whole batch on the tile engine — every
// lane is marked changed, so the pack phase repacks and re-verifies every
// tile — then folds valid rows into the pool in row order. It returns the
// number of new uniques.
func (s *Sampler) collect() int {
	batch := s.cfg.BatchSize
	s.markAllChanged()
	s.runTiles(s.packPh)
	s.resetRows()
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
	s.stats.Unique = s.pool.Len()
	return newUnique
}

// recordRow folds the hardened candidate at lane r of the packed columns
// into the dedup pool, reporting whether it was new. Identity is the
// projected signature when a projection is active (the full model at lane
// r was already verified against the full CNF; a new class keeps it as its
// witness), the full primary-input row otherwise. Every observation — new
// or duplicate — counts toward the matched solution's hit tally. A merge
// calls it in ascending lane order after resetRows, so each packed word
// is transposed into rows at most once.
func (s *Sampler) recordRow(r int) bool {
	var key []uint64
	if s.projPlan != nil {
		key = s.projRows.row(s.projCols, r)
	} else {
		key = s.inRows.row(s.cols, r)
	}
	i, added := s.pool.Insert(key)
	if !added {
		s.hits[i]++
		return false
	}
	if s.projPlan != nil {
		s.wit = append(s.wit, s.inRows.row(s.cols, r)...)
	}
	s.stats.Valid++
	s.hits = append(s.hits, 1)
	return true
}

// resetRows forgets the words the row blocks hold: the columns have been
// repacked since the last merge.
func (s *Sampler) resetRows() {
	s.inRows.at, s.projRows.at = -1, -1
}

// rowBlock holds the 64 lanes of one packed word as packed rows, so a
// merge moves bits a word at a time: one 64×64 transpose per 64 columns
// turns the word's columns into the rows of every lane.
type rowBlock struct {
	rows  []uint64 // 64 rows of words uint64 each, lane-major
	words int      // packed words per row
	at    int      // packed word the rows hold, -1 for none
}

// newRowBlock allocates a row block for rows of width bits.
func newRowBlock(width int) rowBlock {
	words := (width + 63) / 64
	return rowBlock{rows: make([]uint64, 64*words), words: words, at: -1}
}

// row returns lane r of cols as a packed row, transposing r's word into
// the block unless it holds that word already. Bits past the width of the
// row are zero.
func (b *rowBlock) row(cols [][]uint64, r int) []uint64 {
	w := r >> 6
	if w != b.at {
		b.at = w
		var blk [64]uint64
		for k := 0; k < b.words; k++ {
			part := cols[k<<6 : min(k<<6+64, len(cols))]
			for j, col := range part {
				blk[j] = col[w]
			}
			clear(blk[len(part):])
			transpose64(&blk)
			for l, x := range blk {
				b.rows[l*b.words+k] = x
			}
		}
	}
	l := r & 63
	return b.rows[l*b.words : (l+1)*b.words]
}

// sigmoid32 is σ(v) = 1/(1+e^−v), computed in float32 throughout. With
// x = −v, e^x = 2^k·p(r): k = round(x·log₂e), r = x − k·ln2 in
// [−ln2/2, ln2/2] (ln2 split in two so that k·ln2Hi is exact), and p a
// degree-6 fit of e^r on that interval (relative error 2.6e-9), evaluated
// in Estrin's form for a short dependency chain. x is clamped to
// [−126·ln2, 128·ln2], so 2^k is a normal float32 or, at k = 128, +Inf:
// σ(+Inf) = 1, σ(−Inf) = 0, and NaN stays NaN. The clamps are branches:
// with the min and max builtins, whose NaN and signed-zero rules add
// instructions, the function ran about 1.4× slower. Where σ(v) is a
// normal float32 its relative error is below 2^−22; below that its
// absolute error is below 2^−126 (TestSigmoid32Bound).
func sigmoid32(v float32) float32 {
	x := -v
	if x < expLo {
		x = expLo
	}
	if x > expHi {
		x = expHi
	}
	ki := int32(x*log2e + 126.5) // k+126, rounded half up: x·log₂e >= −126
	k := float32(ki - 126)
	r := x - k*ln2Hi - k*ln2Lo
	r2 := r * r
	p := 1 + r + r2*((0.5+expC3*r)+r2*((expC4+expC5*r)+r2*expC6))
	return 1 / (1 + p*math.Float32frombits(uint32(ki+1)<<23)) // 2^k: exponent field k+127
}

// sigmoid32's constants: the clamp (expLo is the float32 just above
// −126·ln2, so e^expLo is still normal), log₂e, ln2 as an exact high part
// and its remainder, and the degree-3..6 coefficients of the fit of e^r
// (degrees 0..2 round to 1, 1 and 1/2 in float32).
const (
	expLo = -87.33654 // −126·ln2
	expHi = 88.72284  // 128·ln2
	log2e = 1.442695
	ln2Hi = 0.693359375
	ln2Lo = -2.12194440e-4
	expC3 = 0.166664153
	expC4 = 0.0416663513
	expC5 = 0.00837512594
	expC6 = 0.00139411085
)

// String describes the sampler configuration.
func (s *Sampler) String() string {
	return fmt.Sprintf("core.Sampler{inputs=%d slots=%d gregs=%d ops=%d batch=%d iters=%d lr=%g tile=%d device=%s}",
		s.NumInputs(), s.prob.eng.numSlots, s.prob.eng.numGregs, s.prob.eng.OpCount(), s.cfg.BatchSize,
		s.cfg.Iterations, s.cfg.LearningRate, s.prob.tile, s.cfg.Device.Name())
}
