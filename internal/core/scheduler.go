package core

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/tensor"
)

// This file implements the tile engine and the continuous-batch scheduler
// that drives it: the replacement for the paper's round-synchronous
// sampling loop, which survives as a thin driver over the same tile phases
// (Round, RoundTrace, SampleRounds in sampler.go). The round loop wastes
// work at both ends of a round — rows that satisfy the formula after the
// first GD iteration burn the remaining steps re-learning a solution the
// pool already holds, and rows one step from converging are discarded at
// the round barrier. The scheduler removes the barrier (see DESIGN.md,
// "Continuous batching"):
//
//   - Every tick starts with a sweep: lanes whose hardened signs may have
//     flipped since the last sweep (tracked for free inside the GD update)
//     are repacked into the bit-parallel columns, without a branch on each
//     sign, and only words holding a dirty lane re-run the clause sweep
//     (bitblast.Eval.Sweep), which checks the CNF clauses the circuit does
//     not prove — validity is a pure function of the packed bits, so
//     cached masks stay exact for clean lanes.
//   - Satisfied rows retire immediately: their solution folds into the
//     dedup pool (and streams to any sink the session holds) and the lane
//     is recycled. Rows that reach the restart cap (Config.MaxAge GD steps
//     without satisfying) recycle too, instead of spinning on a hopeless
//     trajectory.
//   - Tiles stay dense: surviving rows are compacted to the tile head so
//     the fused kernels keep operating on contiguous row ranges with no
//     per-row branches, and retired lanes collect at the tail where the
//     refill pass re-noises them from per-slot SplitMix64 restart streams.
//   - Admission control: normally every retired lane refills, keeping the
//     whole batch busy. Once the remaining demand (target − unique) drops
//     below batch/16, refill admits only what the target can still use —
//     the active set shrinks tile by tile and the final ticks stop paying
//     for rows whose solutions would be discarded.
//
// Because the first tick's sweep runs before any GD step, the initial
// batch is verified as raw noise — the "iteration 0" harvest of the
// paper's Fig. 3 learning curve. Refilled lanes are swept one GD step
// after their restart (refill lands at the end of a sweep and the step
// follows): the descent from fresh noise only raises a lane's
// satisfaction odds, so no harvest is lost, but a restart's raw draw is
// never itself verified.
//
// Parallelism (see DESIGN.md, "Multi-core ticks"): the tick runs as four
// phases with scheduler tiles as the ownership unit. Phase A (parallel)
// packs and verifies (packTile), then ages and compacts (retireTile) each
// tile independently — per-worker bitblast.Eval scratch, per-tile retire
// buffers — with workers claiming the tiles of a contiguous range and
// stealing whole tiles from the most backlogged range once drained. Phase B (sequential) merges retired rows
// into the shared dedup pool in tile order, then row order — exactly the
// order a one-worker sweep visits them — and computes per-tile refill
// quotas by the same sequential tile walk. Phase C (parallel) refills each
// tile to its quota from per-slot restart streams. Phase D (parallel) runs
// the fused GD step per tile, accumulating loss per tile and summing in
// tile order. A round runs phase D Iterations times over fully active
// tiles, then packs and verifies every tile and merges valid rows in row
// order (collect).
//
// Determinism: tile work touches only tile-owned words (tiles are 64-row
// aligned), the merge and quota walks are sequential and tile-ordered,
// restart noise is a pure function of (seed, slot, restart counter), and
// the loss reduction is tile-ordered. A given seed therefore produces a
// bit-identical solution stream — and identical stats — at any worker
// count, and the first tick sees exactly the V state round 0 of the round
// sampler sees (initContinuous draws from the same round stream).

const (
	// restartStride separates the per-slot restart noise streams from one
	// another and from the round-stream initialization.
	restartStride = 0x6A09E667F3BCC909
	// admissionOvercommit is how many active rows the refill pass keeps per
	// remaining requested solution once the target is nearly met; the
	// overcommit absorbs duplicate retirements without starving the drain.
	admissionOvercommit = 16
	// minActive floors the shrunken active set (clamped to the batch) so a
	// tiny remaining demand still gets a dense tile of explorers.
	minActive = 128
	// staleRetiresPerRow scales the saturation guard: the scheduler
	// declares the reachable solution set exhausted after 64×batch retired
	// trajectories gain nothing — the retired-row analogue of the round
	// loop's 64 consecutive zero-gain rounds.
	staleRetiresPerRow = 64
)

// ContinuousStep advances the continuous-batch scheduler by one tick: a
// sweep (incremental harden, masked bit-parallel verify, retire/restart)
// followed — unless the target is met or the pool is saturated — by one
// fused GD iteration over the active rows. target is the total unique
// solutions the driver wants (<= 0 means unbounded); it steers admission
// only, the caller owns the stop condition. It returns the number of new
// unique solutions retired this tick.
func (s *Sampler) ContinuousStep(target int) int {
	start := time.Now()
	defer func() { s.stats.Elapsed += time.Since(start) }()
	if !s.contReady {
		s.initContinuous()
	}
	gained := s.sweep(target)
	if s.exhausted || (target > 0 && s.pool.Len() >= target) {
		return gained
	}
	s.stepActive()
	return gained
}

// Exhausted reports whether the scheduler's saturation guard has tripped:
// 64×batch candidate trajectories retired since the last new unique
// solution (with a non-empty pool) — the reachable solution set is
// exhausted. Cleared when a new unique appears or the scheduler re-seeds.
func (s *Sampler) Exhausted() bool { return s.exhausted }

// ActiveRows reports how many batch rows the scheduler currently runs GD
// on (the full batch outside the admission-controlled drain). The count is
// maintained incrementally at retire/refill — it is read on every tick's
// refill and loss paths, where an O(numTiles) recompute used to sit.
func (s *Sampler) ActiveRows() int { return s.activeRows }

// initContinuous seeds the scheduler. V is drawn from the round stream —
// the first tick sees exactly the state round 0 of the round sampler sees
// — and every lane starts active at age 0 and marked changed, so the first
// sweep packs and verifies the whole batch. Per-slot restart counters are
// deliberately NOT reset on re-entry (after an interleaved Round call):
// replaying a restart stream would re-explore trajectories this sampler
// already consumed.
func (s *Sampler) initContinuous() {
	s.initRound()
	for r := range s.ages {
		s.ages[r] = 0
		s.retiredFl[r] = false
	}
	s.markAllChanged()
	for w := range s.valid {
		s.valid[w] = 0
	}
	s.staleRet = 0
	s.exhausted = false
	s.contReady = true
}

// activateAll makes every lane of every tile active.
func (s *Sampler) activateAll() {
	for t := range s.active {
		s.active[t] = int32(s.tileCap(t))
	}
	s.activeRows = s.cfg.BatchSize
}

// markAllChanged flags every lane of the batch changed, so the next pack
// repacks and re-verifies the whole batch.
func (s *Sampler) markAllChanged() {
	for w := range s.chg {
		s.chg[w] = ^uint64(0)
	}
	if tail := uint(s.cfg.BatchSize) & 63; tail != 0 {
		s.chg[len(s.chg)-1] = 1<<tail - 1
	}
}

// runTiles dispatches one parallel phase over all scheduler tiles. Worker
// w owns the contiguous tile range [w·nt/k, (w+1)·nt/k); it claims and
// processes its own tiles front to back, then steals unclaimed tiles from
// other ranges. Claims are epoch-stamped CAS words: every phase bumps the
// epoch, so claim state never needs clearing. With one worker the claim
// loop degenerates to a sequential in-order walk — the reference ordering
// every other worker count must reproduce.
func (s *Sampler) runTiles(phase func(w, t int)) {
	k := s.cfg.Device.Workers()
	if k > s.numTiles {
		k = s.numTiles
	}
	s.curPhase = phase
	s.curK = k
	s.epoch++
	s.cfg.Device.RunWorkers(k, s.tileFn)
}

// tileWorker is the per-worker claim-and-steal loop shared by all phases.
func (s *Sampler) tileWorker(w int) {
	k, nt, epoch := s.curK, s.numTiles, s.epoch
	phase := s.curPhase
	for t := w * nt / k; t < (w+1)*nt/k; t++ {
		if s.claimTile(t, epoch) {
			phase(w, t)
		}
	}
	// Work stealing at the phase boundary: a drained worker takes whole
	// tiles from the back of the most backlogged range (the front is where
	// its owner is working).
	for {
		t := s.stealTile(epoch, k, w)
		if t < 0 {
			return
		}
		if s.claimTile(t, epoch) {
			phase(w, t)
		}
	}
}

// claimTile attempts to claim tile t for the current phase.
func (s *Sampler) claimTile(t int, epoch uint32) bool {
	old := atomic.LoadUint32(&s.claims[t])
	return old != epoch && atomic.CompareAndSwapUint32(&s.claims[t], old, epoch)
}

// stealTile picks a steal candidate: the last unclaimed tile of the range
// holding the most unclaimed tiles, or -1 when the phase has none left.
// Losing the ensuing claim race just means another scan.
func (s *Sampler) stealTile(epoch uint32, k, self int) int {
	nt := s.numTiles
	best, bestCount := -1, 0
	for r := 0; r < k; r++ {
		if r == self {
			continue
		}
		count, last := 0, -1
		for t := r * nt / k; t < (r+1)*nt/k; t++ {
			if atomic.LoadUint32(&s.claims[t]) != epoch {
				count++
				last = t
			}
		}
		if count > bestCount {
			bestCount, best = count, last
		}
	}
	return best
}

// tileCap returns the row capacity of scheduler tile t.
func (s *Sampler) tileCap(t int) int {
	cap := s.stile
	if rem := s.cfg.BatchSize - t*s.stile; rem < cap {
		cap = rem
	}
	return cap
}

// sweep hardens changed lanes, re-verifies dirty words, retires satisfied
// and stalled rows (compacting each touched tile), and refills retired
// lanes under admission control. It returns the number of new uniques.
func (s *Sampler) sweep(target int) int {
	batch := s.cfg.BatchSize

	// Phase A (parallel): per-tile harden + masked wide verify + retire
	// scan + age + compaction, each tile touching only its own words.
	s.runTiles(s.sweepPh)
	s.stats.Sweeps++

	// Phase B (sequential): merge retired rows into the shared dedup pool
	// in tile order, then row order — exactly the order the one-worker
	// sweep visits them, so the solution stream is independent of how
	// phase A's tiles were scheduled. recordRow reads only the packed
	// columns, which compaction and refill never touch within a tick, so
	// deferring the merge past compaction is exact.
	s.resetRows()
	gained, sat, stalled := 0, 0, 0
	for t := 0; t < s.numTiles; t++ {
		base := t * s.stile
		for j := 0; j < int(s.retCnt[t]); j++ {
			if s.recordRow(int(s.retLanes[base+j])) {
				gained++
			}
		}
		sat += int(s.retCnt[t])
		stalled += int(s.stallCnt[t])
	}
	retired := sat + stalled
	s.stats.Retired += sat
	s.stats.Stalled += stalled
	s.stats.Candidates += retired
	s.stats.Unique = s.pool.Len()
	s.activeRows -= retired

	// Saturation guard: count retired-row gain, not rounds.
	if gained > 0 {
		s.staleRet = 0
	} else {
		s.staleRet += retired
		if s.staleRet >= staleRetiresPerRow*batch && s.pool.Len() > 0 {
			s.exhausted = true
		}
	}

	s.refill(target)
	return gained
}

// sweepTile is phase A's per-tile body: packTile, then retireTile.
func (s *Sampler) sweepTile(w, t int) {
	s.packTile(w, t)
	s.retireTile(t)
}

// packTile is the pack-and-verify half of a sweep: incremental harden of
// the tile's changed lanes and masked wide verify of the tile's dirty
// words with this worker's Eval scratch. It is also collect's phase body.
func (s *Sampler) packTile(w, t int) {
	base := t * s.stile
	w0 := base >> 6
	w1 := (base + s.tileCap(t) + 63) >> 6

	// Incremental harden: only lanes whose hardened signs may have flipped
	// (flagged by the GD update, a restart, or a compaction move) repack
	// into the columns; their words become dirty. Iterates change-bitmap
	// words, so the cost tracks dirty words, not batch size.
	for wi := w0; wi < w1; wi++ {
		m := s.chg[wi]
		s.dirty[wi] = m
		if m == 0 {
			continue
		}
		s.chg[wi] = 0
		s.hardenWord(wi, m)
	}

	// Masked verify: clean words keep their cached masks (validity — and,
	// under projection, the projected signature — is a pure function of the
	// packed bits).
	s.vevals[w].Sweep(s.cols, w0, w1, s.dirty, s.valid, s.projCols)
}

// hardenWord repacks the lanes m marks in packed word wi from V's rows,
// 64 inputs at a time: each marked lane's signs gather into one row word,
// one 64×64 transpose turns the block's row words into column words, and
// the marked lanes blend into the columns. Lanes m does not mark keep
// their bits, whatever the block holds for them.
func (s *Sampler) hardenWord(wi int, m uint64) {
	n := s.prob.eng.numInputs
	var blk [64]uint64
	for i0 := 0; i0 < n; i0 += 64 {
		i1 := min(i0+64, n)
		for mm := m; mm != 0; mm &= mm - 1 {
			l := bits.TrailingZeros64(mm)
			x := uint64(0)
			for j, v := range s.vmat.Row(wi<<6 | l)[i0:i1] {
				x |= positive(v) << uint(j)
			}
			blk[l] = x
		}
		transpose64(&blk)
		for j, col := range s.cols[i0:i1] {
			col[wi] = col[wi]&^m | blk[j]&m
		}
	}
}

// positive is 1 when v > 0 and 0 otherwise, NaN included, without a
// branch: fresh noise makes the sign a coin flip the branch predictor
// loses half the time. v > 0 exactly when v's bits less one, as a uint32,
// lie below +Inf's bits (0x7F800000): +0 wraps to the top, and NaNs and
// negatives (sign bit set) lie at or above.
func positive(v float32) uint64 {
	return (uint64(math.Float32bits(v)-1) - 0x7F800000) >> 63
}

// transpose64 transposes a 64×64 bit matrix in place: bit j of a[i]
// trades places with bit i of a[j]. Each of the six stages swaps the
// off-diagonal j×j blocks of every 2j×2j block (j = 32, 16, …, 1) with
// one masked XOR per row pair, so a whole transpose is 192 swaps instead
// of 4,096 single-bit moves. It is its own inverse.
func transpose64(a *[64]uint64) {
	transposeStage(a, 32, 0x00000000FFFFFFFF)
	transposeStage(a, 16, 0x0000FFFF0000FFFF)
	transposeStage(a, 8, 0x00FF00FF00FF00FF)
	transposeStage(a, 4, 0x0F0F0F0F0F0F0F0F)
	transposeStage(a, 2, 0x3333333333333333)
	transposeStage(a, 1, 0x5555555555555555)
}

// transposeStage swaps, in every row pair (k, k+j) with bit j of k clear,
// the bits of row k above the mask m's runs with the bits of row k+j under
// them. It inlines into transpose64, so j and m are constants there.
func transposeStage(a *[64]uint64, j uint, m uint64) {
	for k := uint(0); k < 64; k = (k + j + 1) &^ j {
		t := (a[k&63]>>j ^ a[(k|j)&63]) & m
		a[(k|j)&63] ^= t
		a[k&63] ^= t << j
	}
}

// retireTile is the retire half of a sweep: satisfied rows queue in the
// tile's region of retLanes for the sequential merge and recycle;
// unsatisfied rows age, rows at the restart cap recycle without
// harvesting, and the survivors compact to the tile head.
func (s *Sampler) retireTile(t int) {
	base := t * s.stile
	end := base + int(s.active[t])
	maxAge := int32(s.cfg.MaxAge)
	nsat, nstall := 0, 0
	for r := base; r < end; r++ {
		if s.valid[r>>6]>>(uint(r)&63)&1 == 1 {
			s.retLanes[base+nsat] = int32(r)
			nsat++
			s.retiredFl[r] = true
			continue
		}
		s.ages[r]++
		if s.ages[r] >= maxAge {
			s.retiredFl[r] = true
			nstall++
		}
	}
	s.retCnt[t] = int32(nsat)
	s.stallCnt[t] = int32(nstall)
	if nsat+nstall > 0 {
		s.compactTile(t, base, end)
	}
}

// compactTile packs the tile's surviving rows to the head so the fused
// kernels keep a dense, branch-free row range; retired lanes collect at
// the tail for refill. Moved rows are flagged changed — their new lanes
// repack (and their words re-verify) on the next sweep.
func (s *Sampler) compactTile(t, base, end int) {
	live := base
	for r := base; r < end; r++ {
		if s.retiredFl[r] {
			s.retiredFl[r] = false
			continue
		}
		if live != r {
			copy(s.vmat.Row(live), s.vmat.Row(r))
			s.ages[live] = s.ages[r]
			s.chg[live>>6] |= 1 << (uint(live) & 63)
		}
		live++
	}
	s.active[t] = int32(live - base)
}

// refill restarts retired lanes with fresh noise up to the admission
// target: the full batch normally, or a shrinking active set once the
// remaining demand is small — the continuous-batching analogue of
// admitting no request the server can no longer serve.
func (s *Sampler) refill(target int) {
	batch := s.cfg.BatchSize
	want := batch
	switch {
	case s.exhausted:
		want = 0
	case target > 0:
		remaining := target - s.pool.Len()
		if remaining <= 0 {
			want = 0
		} else if remaining < batch/admissionOvercommit {
			want = remaining * admissionOvercommit
			if want < minActive {
				want = minActive
			}
			if want > batch {
				want = batch
			}
		}
	}
	// Quotas are computed by the same sequential tile walk the one-worker
	// refill performs, so which slots restart — and therefore each slot's
	// restart-counter stream — is identical at any worker count. The
	// restarts themselves (phase C) are slot-pure noise draws, so they can
	// run tiles in parallel in any order.
	total := s.activeRows
	refills := 0
	for t := 0; t < s.numTiles; t++ {
		q := 0
		if total < want {
			q = s.tileCap(t) - int(s.active[t])
			if q > want-total {
				q = want - total
			}
			total += q
		}
		s.refillQ[t] = int32(q)
		refills += q
	}
	s.activeRows = total
	if refills > 0 {
		s.runTiles(s.refillPh)
	}
}

// refillTile is phase C's per-tile body: restart refillQ[t] retired lanes
// at the tile's tail.
func (s *Sampler) refillTile(_, t int) {
	base := t * s.stile
	for j := int32(0); j < s.refillQ[t]; j++ {
		s.restartRow(base + int(s.active[t]))
		s.active[t]++
	}
}

// restartRow recycles lane r: the next draw of its per-slot SplitMix64
// restart stream fills V's row, the age resets, and the
// lane is flagged for repacking, so the next sweep (which follows one GD
// step on the fresh noise) re-verifies it.
func (s *Sampler) restartRow(r int) {
	s.restarts[r]++
	state := tensor.SplitMix64(uint64(s.cfg.Seed) +
		uint64(r)*0x9E3779B97F4A7C15 +
		uint64(s.restarts[r])*restartStride)
	lo, hi := -s.cfg.InitRange, s.cfg.InitRange
	row := s.vmat.Row(r)
	for i := range row {
		state += tensor.DrawIncrement
		row[i] = lo + (hi-lo)*tensor.Uniform01(tensor.SplitMix64(state))
	}
	s.ages[r] = 0
	s.chg[r>>6] |= 1 << (uint(r) & 63)
}

// stepActive runs one fused GD iteration over each tile's active rows
// (phase D). Loss accumulates per tile and reduces in tile order, so
// FinalLoss is bit-identical at any worker count despite float addition
// being non-associative.
func (s *Sampler) stepActive() {
	s.runTiles(s.stepPh)
	total := 0.0
	for _, l := range s.tileLoss {
		total += l
	}
	s.stats.FinalLoss = total + s.prob.eng.constLoss*float64(s.activeRows)
	s.stats.Iterations++
}

// stepActiveTile is phase D's per-tile body: the fused GD pipeline over
// the tile's active rows, re-chunked into cache tiles.
func (s *Sampler) stepActiveTile(w, t int) {
	sc := &s.scratch[w]
	base := t * s.stile
	n := int(s.active[t])
	tile := s.prob.tile
	sum := 0.0
	for lo := 0; lo < n; lo += tile {
		nt := tile
		if lo+nt > n {
			nt = n - lo
		}
		sum += s.stepTile(sc, base+lo, nt)
	}
	s.tileLoss[t] = sum
}
