package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/envelope"
	"repro/internal/tensor"
)

// This file implements session checkpoint/restore: Sampler.Snapshot
// captures the complete per-session state — V and momentum matrices, the
// per-slot SplitMix64 restart-stream cursors, row ages, the dedup pool
// (solutions, projected signatures, hit tallies, hash chains), retired/
// saturation counters, and the continuous scheduler's per-tile active
// regions with its packed verifier view — and RestoreSampler rebuilds a
// Sampler that continues the *byte-identical* solution stream an
// uninterrupted run would have produced (the invariant guarded by
// TestSnapshotResumeEquivalence).
//
// The snapshot is an exact state capture, including state that is in
// principle recomputable (the packed hardened columns, cached validity
// masks, projected-signature columns, pending changed flags, and the
// per-solution dedup hashes). Recomputing them on restore — one full
// repack + bit-parallel verify plus a re-hash of every pooled solution —
// costs tens of milliseconds on an s15850a-scale session, blowing the
// checkpoint-on-every-drain budget; serializing them costs ~1% of the
// snapshot's size (V dominates) and makes restore a plain copy. The
// trade-off is that the codec trusts these derived sections: they are
// CRC-covered like everything else, so corruption is detected, but a
// deliberately forged token could desynchronize its own session's dedup
// state. Resume tokens are server-generated opaque blobs with an outer
// integrity digest; forging one only damages the forger's stream.
//
// Scratch that is dead between ticks — the per-word dirty mask, the
// per-sweep retirement flags, the per-worker value/adjoint tiles — is NOT
// captured: every tick rebuilds it from scratch before reading it.
//
// The codec is a versioned, length-prefixed little-endian binary format
// (a field list over internal/envelope) keyed by the Problem's content
// hash: a snapshot only restores onto the identical compiled artifact
// (same formula, same projection identity). Every length field is
// bounds-checked against the remaining input before allocation and the
// whole payload is covered by a trailing CRC32, so a truncated or
// corrupted snapshot yields a clean error — never a panic, never a
// half-restored session (FuzzDecodeSnapshot guards this).

// SnapshotVersion is the current snapshot codec version. Decode rejects
// any other version: a checkpoint outlives the process that wrote it, so
// silent cross-version reinterpretation is never acceptable.
const SnapshotVersion = 1

// snapshotMagic opens every encoded snapshot.
const snapshotMagic = "GDSS"

// ErrBadSnapshot is wrapped by every snapshot decode/restore failure, so
// callers can map "this token is garbage" to a clean client error without
// string matching.
var ErrBadSnapshot = errors.New("core: invalid snapshot")

// Snapshot is the decoded form of one session checkpoint. It is immutable
// once created (restore aliases its pool arrays but never mutates them, so
// one Snapshot may be restored any number of times); MarshalBinary and
// DecodeSnapshot convert to and from the portable binary form, and
// RestoreSampler turns it back into a live session over the identical
// compiled Problem.
type Snapshot struct {
	key       string // Problem.Key of the compiled artifact
	numInputs int    // primary inputs of the compiled engine

	// Config (post-default; Device is captured as its worker count only —
	// streams are deterministic across worker counts, so a snapshot may be
	// restored onto any device).
	batch, iterations, maxAge int
	lr, initRange, momentum   float32
	seed                      int64
	workers                   int
	roundMode                 bool
	hasProj                   bool
	projection                []int
	clauseWeights             []float64

	round int64
	stats Stats

	vdata []float32 // V matrix, row-major batch×n
	mdata []float32 // momentum matrix (nil when Momentum == 0)

	// Continuous scheduler state (zero-valued when the session was in
	// round mode or never started the scheduler). cols/valid/projCols/
	// changed are the scheduler's packed verifier view at the tick
	// boundary: the columns still hold pre-step bits for lanes whose GD
	// update flipped a hardened sign, and changed flags exactly those
	// lanes for the next sweep's incremental repack.
	contReady bool
	exhausted bool
	ages      []int32
	restarts  []uint32
	active    []int32
	staleRet  int
	cols      []uint64 // packed hardened columns, flattened n×words
	valid     []uint64 // cached per-word validity masks
	projCols  []uint64 // packed projected-signature columns, flattened np×words
	changed   []uint64 // pending changed-lane flags, packed 1 bit per lane

	// Dedup pool: unique primary-input solutions in discovery order
	// (bit-packed, one row of (numInputs+7)/8 bytes per solution — packed
	// at capture so marshal and decode are plain copies), their retirement
	// tallies, their 64-bit dedup hashes (the map keys, so the hash chains
	// rebuild without re-hashing), and (under a projection) the packed
	// projected signature per solution.
	solPacked []byte // nsols × rowBytes
	nsols     int
	hits      []int32
	hashes    []uint64
	psigs     []uint64 // nsols × sigWords
}

// Key returns the content hash of the compiled Problem this snapshot was
// taken over; RestoreSampler refuses any other artifact.
func (sn *Snapshot) Key() string { return sn.key }

// Batch returns the session's GD batch size — fixed across resume, so
// admission control can re-price a restored session before restoring it.
func (sn *Snapshot) Batch() int { return sn.batch }

// Workers returns the device worker count the session ran with.
func (sn *Snapshot) Workers() int { return sn.workers }

// Seed returns the session's base seed.
func (sn *Snapshot) Seed() int64 { return sn.seed }

// Momentum reports whether the session carries a momentum matrix.
func (sn *Snapshot) Momentum() bool { return sn.mdata != nil }

// RoundMode reports whether the session ran the round-synchronous loop.
func (sn *Snapshot) RoundMode() bool { return sn.roundMode }

// ProjectionWidth returns the number of projection variables defining the
// session's solution identity (0 = full assignment).
func (sn *Snapshot) ProjectionWidth() int { return len(sn.projection) }

// UniqueCount returns the number of unique solutions in the snapshot's
// dedup pool.
func (sn *Snapshot) UniqueCount() int { return sn.nsols }

// Stats returns the session's accumulated statistics at checkpoint time.
func (sn *Snapshot) Stats() Stats { return sn.stats }

// Shape returns the shape a session restored from sn prices at on a device
// with the given workers, streaming to target: the checkpoint fixes the
// batch, projection, momentum and the pool it already holds.
func (sn *Snapshot) Shape(workers, target int) Shape {
	return Shape{Workers: workers, Batch: sn.batch, Target: target, Retained: sn.nsols,
		Projection: len(sn.projection), Momentum: sn.mdata != nil}
}

// Snapshot captures the sampler's complete per-session state between
// sampling calls. It must not run concurrently with Round/ContinuousStep/
// SampleUntil on the same Sampler (a Sampler is single-caller by
// contract); the returned Snapshot holds copies, so the sampler may keep
// running afterwards without invalidating it.
func (s *Sampler) Snapshot() *Snapshot {
	n := s.prob.eng.numInputs
	sn := &Snapshot{
		key:        s.prob.key,
		numInputs:  n,
		batch:      s.cfg.BatchSize,
		iterations: s.cfg.Iterations,
		maxAge:     s.cfg.MaxAge,
		lr:         s.cfg.LearningRate,
		initRange:  s.cfg.InitRange,
		momentum:   s.cfg.Momentum,
		seed:       s.cfg.Seed,
		workers:    s.cfg.Device.Workers(),
		roundMode:  s.cfg.RoundMode,
		hasProj:    s.projection != nil,
		round:      s.round,
		stats:      s.stats,
		vdata:      append([]float32(nil), s.vmat.Data...),
		contReady:  s.contReady,
		exhausted:  s.exhausted,
		staleRet:   s.staleRet,
	}
	if s.projection != nil {
		sn.projection = append([]int(nil), s.projection...)
	}
	if s.cfg.ClauseWeights != nil {
		sn.clauseWeights = append([]float64(nil), s.cfg.ClauseWeights...)
	}
	if s.mmat != nil {
		sn.mdata = append([]float32(nil), s.mmat.Data...)
	}
	if s.contReady {
		sn.ages = append([]int32(nil), s.ages...)
		sn.restarts = append([]uint32(nil), s.restarts...)
		sn.active = append([]int32(nil), s.active...)
		sn.cols = append([]uint64(nil), s.colbuf...)
		sn.valid = append([]uint64(nil), s.valid...)
		if s.projPlan != nil {
			sn.projCols = append([]uint64(nil), s.projbuf...)
		}
		// The live change bitmap is already in the codec's packed layout.
		sn.changed = append([]uint64(nil), s.chg...)
	}
	sn.nsols = len(s.sols)
	rowBytes := (n + 7) / 8
	sn.solPacked = make([]byte, sn.nsols*rowBytes)
	for i, sol := range s.sols {
		packBools(sn.solPacked[i*rowBytes:(i+1)*rowBytes], sol)
	}
	sn.hits = append([]int32(nil), s.hits...)
	// The dedup hashes are the map keys: recover each solution's hash from
	// its chain instead of re-hashing the pool.
	sn.hashes = make([]uint64, sn.nsols)
	for h, chain := range s.unique {
		for _, idx := range chain {
			sn.hashes[idx] = h
		}
	}
	if s.projPlan != nil {
		sigWords := (len(s.projection) + 63) / 64
		sn.psigs = make([]uint64, sn.nsols*sigWords)
		for i, sig := range s.psigs {
			copy(sn.psigs[i*sigWords:], sig)
		}
	}
	return sn
}

// RestoreSampler rebuilds a sampler session from a snapshot over the
// identical compiled Problem, on a device with the snapshot's worker
// count. The restored session continues the byte-identical solution
// stream of an uninterrupted run for the same seed.
func RestoreSampler(p *Problem, sn *Snapshot) (*Sampler, error) {
	dev := tensor.Sequential()
	if sn != nil && sn.workers > 1 {
		dev = tensor.ParallelN(sn.workers)
	}
	return RestoreSamplerOn(p, sn, dev)
}

// RestoreSamplerOn is RestoreSampler on an explicit device: solution
// streams are deterministic across worker counts, so a snapshot taken on
// one device restores onto any other without changing the stream.
func RestoreSamplerOn(p *Problem, sn *Snapshot, dev tensor.Device) (*Sampler, error) {
	if p == nil {
		return nil, fmt.Errorf("%w: nil problem", ErrBadSnapshot)
	}
	if sn == nil {
		return nil, fmt.Errorf("%w: nil snapshot", ErrBadSnapshot)
	}
	if sn.key != p.key {
		return nil, fmt.Errorf("%w: snapshot key %s does not match problem %s (a snapshot restores only onto the identical compiled artifact)",
			ErrBadSnapshot, abbrev(sn.key), abbrev(p.key))
	}
	if sn.numInputs != p.eng.numInputs {
		return nil, fmt.Errorf("%w: snapshot has %d inputs, problem has %d", ErrBadSnapshot, sn.numInputs, p.eng.numInputs)
	}
	cfg := Config{
		BatchSize:     sn.batch,
		Iterations:    sn.iterations,
		LearningRate:  sn.lr,
		Seed:          sn.seed,
		Device:        dev,
		InitRange:     sn.initRange,
		Momentum:      sn.momentum,
		MaxAge:        sn.maxAge,
		RoundMode:     sn.roundMode,
		ClauseWeights: sn.clauseWeights,
	}
	// An effective projection restores explicitly; its absence must also be
	// explicit (an empty non-nil slice), or newSession would re-inherit the
	// formula's declared sampling set that this session may have overridden.
	if sn.hasProj {
		cfg.Projection = sn.projection
	} else {
		cfg.Projection = []int{}
	}
	s, err := newSession(p, cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}

	n := p.eng.numInputs
	if len(sn.vdata) != sn.batch*n {
		return nil, fmt.Errorf("%w: V data has %d values for batch %d × %d inputs", ErrBadSnapshot, len(sn.vdata), sn.batch, n)
	}
	copy(s.vmat.Data, sn.vdata)
	if (sn.mdata != nil) != (s.mmat != nil) {
		return nil, fmt.Errorf("%w: momentum data/config mismatch", ErrBadSnapshot)
	}
	if s.mmat != nil {
		if len(sn.mdata) != sn.batch*n {
			return nil, fmt.Errorf("%w: momentum data has %d values, want %d", ErrBadSnapshot, len(sn.mdata), sn.batch*n)
		}
		copy(s.mmat.Data, sn.mdata)
	}
	s.round = sn.round
	s.stats = sn.stats

	if err := s.restorePool(sn); err != nil {
		return nil, err
	}
	if sn.contReady {
		if err := s.restoreScheduler(sn); err != nil {
			return nil, err
		}
	}
	if s.stats.Unique != len(s.sols) {
		return nil, fmt.Errorf("%w: stats report %d unique, pool holds %d", ErrBadSnapshot, s.stats.Unique, len(s.sols))
	}
	return s, nil
}

// restorePool rebuilds the dedup pool — solutions, hit tallies, projected
// signatures, and the hash chains — from the snapshot, in discovery order
// (so chain order, and therefore every future dedup probe, matches the
// uninterrupted session exactly). The solution rows and signatures alias
// the snapshot's backing arrays: both sides treat pooled entries as
// immutable, so the alias is safe and restore stays O(pool) map inserts
// instead of O(pool × inputs) re-hashing.
func (s *Sampler) restorePool(sn *Snapshot) error {
	n := s.prob.eng.numInputs
	rowBytes := (n + 7) / 8
	nsols := sn.nsols
	if len(sn.solPacked) != nsols*rowBytes || len(sn.hits) != nsols || len(sn.hashes) != nsols {
		return fmt.Errorf("%w: pool arrays (%d sol bytes, %d hits, %d hashes) for %d solutions × %d inputs",
			ErrBadSnapshot, len(sn.solPacked), len(sn.hits), len(sn.hashes), nsols, n)
	}
	proj := s.projPlan != nil
	sigWords := (len(s.projection) + 63) / 64
	if proj {
		if len(sn.psigs) != nsols*sigWords {
			return fmt.Errorf("%w: %d projected-signature words for %d solutions × %d words", ErrBadSnapshot, len(sn.psigs), nsols, sigWords)
		}
	} else if len(sn.psigs) != 0 {
		return fmt.Errorf("%w: projected signatures without a projection", ErrBadSnapshot)
	}
	if nsols == 0 {
		return nil
	}
	s.sols = make([][]bool, nsols)
	s.hits = append([]int32(nil), sn.hits...)
	if proj {
		s.psigs = make([][]uint64, nsols)
	}
	flat := make([]bool, nsols*n)
	// Hash chains come from one backing array (full-capacity sub-slices, so
	// a future collision append copies out instead of clobbering a
	// neighbor): the pool restores with two allocations, not one per
	// solution — the map is presized for the same reason.
	s.unique = make(map[uint64][]int32, nsols)
	chainBuf := make([]int32, 0, nsols)
	for i := 0; i < nsols; i++ {
		if sn.hits[i] < 1 {
			return fmt.Errorf("%w: solution %d has hit tally %d", ErrBadSnapshot, i, sn.hits[i])
		}
		sol := flat[i*n : (i+1)*n]
		unpackBools(sol, sn.solPacked[i*rowBytes:])
		s.sols[i] = sol
		if proj {
			s.psigs[i] = sn.psigs[i*sigWords : (i+1)*sigWords]
		}
		h := sn.hashes[i]
		if cur, ok := s.unique[h]; ok {
			s.unique[h] = append(cur, int32(i))
		} else {
			chainBuf = append(chainBuf, int32(i))
			s.unique[h] = chainBuf[len(chainBuf)-1 : len(chainBuf) : len(chainBuf)]
		}
	}
	return nil
}

// b2u converts a bool to 0/1 without a data-dependent branch (the compiler
// lowers it to a plain byte load — Go bools are 0/1 in memory).
func b2u(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// packBools bit-packs src LSB-first into dst (len(dst) >= (len(src)+7)/8,
// fully overwritten), eight bools per byte with no per-bit branches.
func packBools(dst []byte, src []bool) {
	n := len(src)
	j := 0
	for ; j+8 <= n; j += 8 {
		dst[j>>3] = b2u(src[j]) | b2u(src[j+1])<<1 | b2u(src[j+2])<<2 | b2u(src[j+3])<<3 |
			b2u(src[j+4])<<4 | b2u(src[j+5])<<5 | b2u(src[j+6])<<6 | b2u(src[j+7])<<7
	}
	if j < n {
		var b byte
		for ; j < n; j++ {
			b |= b2u(src[j]) << (uint(j) & 7)
		}
		dst[(n-1)>>3] = b
	}
}

// unpackBools expands LSB-first packed bits into dst (the inverse of
// packBools; src must hold (len(dst)+7)/8 bytes).
func unpackBools(dst []bool, src []byte) {
	n := len(dst)
	j := 0
	for ; j+8 <= n; j += 8 {
		b := src[j>>3]
		dst[j] = b&1 != 0
		dst[j+1] = b&2 != 0
		dst[j+2] = b&4 != 0
		dst[j+3] = b&8 != 0
		dst[j+4] = b&16 != 0
		dst[j+5] = b&32 != 0
		dst[j+6] = b&64 != 0
		dst[j+7] = b&128 != 0
	}
	for ; j < n; j++ {
		dst[j] = src[j>>3]>>(uint(j)&7)&1 != 0
	}
}

// restoreScheduler rebuilds the continuous scheduler's live view from the
// snapshot: the per-row arrays, and the packed columns + cached validity
// masks + pending changed flags exactly as the tick boundary left them.
func (s *Sampler) restoreScheduler(sn *Snapshot) error {
	batch := s.cfg.BatchSize
	words := (batch + 63) / 64
	n := s.prob.eng.numInputs
	if len(sn.ages) != batch || len(sn.restarts) != batch {
		return fmt.Errorf("%w: scheduler rows (%d ages, %d restarts) for batch %d", ErrBadSnapshot, len(sn.ages), len(sn.restarts), batch)
	}
	if len(sn.active) != s.numTiles {
		return fmt.Errorf("%w: %d active tiles, want %d", ErrBadSnapshot, len(sn.active), s.numTiles)
	}
	for t, a := range sn.active {
		if a < 0 || int(a) > s.tileCap(t) {
			return fmt.Errorf("%w: tile %d active %d exceeds capacity %d", ErrBadSnapshot, t, a, s.tileCap(t))
		}
	}
	if len(sn.cols) != n*words || len(sn.valid) != words || len(sn.changed) != words {
		return fmt.Errorf("%w: verifier view (%d col words, %d valid words, %d changed words) for %d inputs × %d words",
			ErrBadSnapshot, len(sn.cols), len(sn.valid), len(sn.changed), n, words)
	}
	if s.projPlan != nil {
		if want := len(s.projection) * words; len(sn.projCols) != want {
			return fmt.Errorf("%w: %d projected column words, want %d", ErrBadSnapshot, len(sn.projCols), want)
		}
	} else if len(sn.projCols) != 0 {
		return fmt.Errorf("%w: projected columns without a projection", ErrBadSnapshot)
	}
	s.ensureContState()
	copy(s.ages, sn.ages)
	copy(s.restarts, sn.restarts)
	copy(s.active, sn.active)
	copy(s.colbuf, sn.cols)
	copy(s.valid, sn.valid)
	if s.projPlan != nil {
		copy(s.projbuf, sn.projCols)
	}
	copy(s.chg, sn.changed)
	s.activeRows = 0
	for _, a := range s.active {
		s.activeRows += int(a)
	}
	s.staleRet = sn.staleRet
	s.exhausted = sn.exhausted
	s.contReady = true
	s.track = true
	return nil
}

// abbrev shortens a content-hash key for error messages.
func abbrev(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	if key == "" {
		return "<empty>"
	}
	return key
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

// snapshot flag bits.
const (
	snapFlagRoundMode = 1 << iota
	snapFlagMomentum
	snapFlagContReady
	snapFlagExhausted
	snapFlagProjection
)

// MarshalBinary encodes the snapshot in the versioned binary format. The
// result is self-contained: DecodeSnapshot needs no Problem to parse and
// validate it (RestoreSampler then checks it against one).
func (sn *Snapshot) MarshalBinary() ([]byte, error) {
	if len(sn.key) > 0xFFFF {
		return nil, fmt.Errorf("%w: oversized key", ErrBadSnapshot)
	}
	n := sn.numInputs
	rowBytes := (n + 7) / 8
	est := 192 + len(sn.key) + 4*len(sn.projection) + 8*len(sn.clauseWeights) +
		4*len(sn.vdata) + 4*len(sn.mdata) +
		8*len(sn.ages) + 4*len(sn.active) +
		8*(len(sn.cols)+len(sn.valid)+len(sn.changed)+len(sn.projCols)) +
		sn.nsols*(rowBytes+12) + 8*len(sn.psigs)
	e := envelope.NewEncoder(snapshotMagic, SnapshotVersion, est)
	e.Str(sn.key)
	e.U32(uint32(sn.batch))
	e.U32(uint32(sn.iterations))
	e.U32(uint32(sn.maxAge))
	e.F32(sn.lr)
	e.F32(sn.initRange)
	e.F32(sn.momentum)
	e.U64(uint64(sn.seed))
	e.U32(uint32(sn.workers))
	e.U32(uint32(n))
	var flags uint8
	if sn.roundMode {
		flags |= snapFlagRoundMode
	}
	if sn.mdata != nil {
		flags |= snapFlagMomentum
	}
	if sn.contReady {
		flags |= snapFlagContReady
	}
	if sn.exhausted {
		flags |= snapFlagExhausted
	}
	if sn.hasProj {
		flags |= snapFlagProjection
	}
	e.U8(flags)
	if sn.hasProj {
		e.Ints(sn.projection)
	}
	e.U32(uint32(len(sn.clauseWeights)))
	for _, w := range sn.clauseWeights {
		e.F64(w)
	}
	e.U64(uint64(sn.round))
	st := sn.stats
	e.U64(uint64(st.Rounds))
	e.U64(uint64(st.Iterations))
	e.U64(uint64(st.Sweeps))
	e.U64(uint64(st.Candidates))
	e.U64(uint64(st.Valid))
	e.U64(uint64(st.Unique))
	e.U64(uint64(st.Retired))
	e.U64(uint64(st.Stalled))
	e.U64(uint64(st.Elapsed.Nanoseconds()))
	e.F64(st.FinalLoss)

	e.F32s(sn.vdata)
	if sn.mdata != nil {
		e.F32s(sn.mdata)
	}
	if sn.contReady {
		e.I32s(sn.ages)
		e.U32s(sn.restarts)
		e.I32s(sn.active)
		e.U64(uint64(sn.staleRet))
		e.U64s(sn.cols)
		e.U64s(sn.valid)
		e.U64s(sn.changed)
		if sn.hasProj {
			e.U64s(sn.projCols)
		}
	}

	e.U32(uint32(sn.nsols))
	copy(e.Grow(len(sn.solPacked)), sn.solPacked)
	e.I32s(sn.hits)
	e.U64s(sn.hashes)
	if sn.hasProj {
		e.U64s(sn.psigs)
	}
	return e.Seal(envelope.CRC32), nil
}

// DecodeSnapshot parses and validates an encoded snapshot. It never
// panics: truncated, corrupted, or version-mismatched input returns an
// error wrapping ErrBadSnapshot, and no partially decoded state escapes.
// The returned Snapshot aliases data's pool section — the caller must not
// mutate data while the Snapshot (or a session restored from it) is live.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	d, err := envelope.Open(data, snapshotMagic, envelope.CRC32, SnapshotVersion, SnapshotVersion, ErrBadSnapshot)
	if err != nil {
		return nil, err
	}
	sn := &Snapshot{}
	sn.key = d.Str()
	sn.batch = int(d.U32())
	sn.iterations = int(d.U32())
	sn.maxAge = int(d.U32())
	sn.lr = d.F32()
	sn.initRange = d.F32()
	sn.momentum = d.F32()
	sn.seed = int64(d.U64())
	sn.workers = int(d.U32())
	sn.numInputs = int(d.U32())
	flags := d.U8()
	if err := d.Err(); err != nil {
		return nil, err
	}
	sn.roundMode = flags&snapFlagRoundMode != 0
	sn.contReady = flags&snapFlagContReady != 0
	sn.exhausted = flags&snapFlagExhausted != 0
	sn.hasProj = flags&snapFlagProjection != 0

	const maxDim = 1 << 24 // sanity bound on batch/inputs: far past any real session
	if sn.batch < 1 || sn.batch > maxDim || sn.numInputs < 1 || sn.numInputs > maxDim {
		return nil, fmt.Errorf("%w: implausible shape batch=%d inputs=%d", ErrBadSnapshot, sn.batch, sn.numInputs)
	}
	if sn.iterations < 1 || sn.maxAge < 1 || sn.workers < 1 || sn.workers > maxDim {
		return nil, fmt.Errorf("%w: implausible config iters=%d maxAge=%d workers=%d", ErrBadSnapshot, sn.iterations, sn.maxAge, sn.workers)
	}

	if sn.hasProj {
		sn.projection = d.Ints("projection")
		if len(sn.projection) == 0 {
			d.Fail("projection flag set with zero variables")
		}
	}
	if ncw := d.Count(8, "clause weights"); ncw > 0 {
		sn.clauseWeights = make([]float64, ncw)
		for i := range sn.clauseWeights {
			sn.clauseWeights[i] = d.F64()
		}
	}
	sn.round = int64(d.U64())
	sn.stats.Rounds = int(d.U64())
	sn.stats.Iterations = int(d.U64())
	sn.stats.Sweeps = int(d.U64())
	sn.stats.Candidates = int(d.U64())
	sn.stats.Valid = int(d.U64())
	sn.stats.Unique = int(d.U64())
	sn.stats.Retired = int(d.U64())
	sn.stats.Stalled = int(d.U64())
	sn.stats.Elapsed = time.Duration(d.U64())
	sn.stats.FinalLoss = d.F64()
	if err := d.Err(); err != nil {
		return nil, err
	}

	words := (sn.batch + 63) / 64
	sn.vdata = d.F32s("V data")
	if d.Err() == nil && len(sn.vdata) != sn.batch*sn.numInputs {
		d.Fail("V data has %d values for batch %d × %d inputs", len(sn.vdata), sn.batch, sn.numInputs)
	}
	if flags&snapFlagMomentum != 0 {
		sn.mdata = d.F32s("momentum data")
		if d.Err() == nil && len(sn.mdata) != len(sn.vdata) {
			d.Fail("momentum data has %d values, want %d", len(sn.mdata), len(sn.vdata))
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}

	if sn.contReady {
		sn.ages = d.I32s("row ages")
		sn.restarts = d.U32s("restart counters")
		sn.active = d.I32s("active tiles")
		sn.staleRet = int(d.U64())
		sn.cols = d.U64s("packed columns")
		sn.valid = d.U64s("validity masks")
		sn.changed = d.U64s("changed flags")
		if sn.hasProj {
			sn.projCols = d.U64s("projected columns")
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		if len(sn.ages) != sn.batch || len(sn.restarts) != sn.batch {
			return nil, fmt.Errorf("%w: scheduler rows (%d ages, %d restarts) for batch %d", ErrBadSnapshot, len(sn.ages), len(sn.restarts), sn.batch)
		}
		if len(sn.cols) != sn.numInputs*words || len(sn.valid) != words || len(sn.changed) != words {
			return nil, fmt.Errorf("%w: verifier view shape mismatch", ErrBadSnapshot)
		}
		if sn.hasProj && len(sn.projCols) != len(sn.projection)*words {
			return nil, fmt.Errorf("%w: projected column shape mismatch", ErrBadSnapshot)
		}
	}

	rowBytes := (sn.numInputs + 7) / 8
	nsols := d.Count(rowBytes+12, "solutions")
	if d.Err() == nil && nsols != sn.stats.Unique {
		d.Fail("pool holds %d solutions, stats report %d", nsols, sn.stats.Unique)
	}
	sn.nsols = nsols
	sn.solPacked = d.Take(nsols * rowBytes) // aliases data; see DecodeSnapshot's doc comment
	sn.hits = d.I32s("hit tallies")
	sn.hashes = d.U64s("dedup hashes")
	if d.Err() == nil && (len(sn.hits) != nsols || len(sn.hashes) != nsols) {
		d.Fail("pool arrays (%d hits, %d hashes) for %d solutions", len(sn.hits), len(sn.hashes), nsols)
	}
	if sn.hasProj {
		sigWords := (len(sn.projection) + 63) / 64
		sn.psigs = d.U64s("projected signatures")
		if d.Err() == nil && len(sn.psigs) != nsols*sigWords {
			d.Fail("projected signatures hold %d words for %d solutions × %d words", len(sn.psigs), nsols, sigWords)
		}
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return sn, nil
}
