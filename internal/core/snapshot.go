package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bitblast"
	"repro/internal/envelope"
	"repro/internal/tensor"
)

// This file implements session checkpoint/restore: Sampler.Snapshot
// captures the per-session state that no computation recovers — the
// config, the stats, the soft-input matrix V, the scheduler's per-row ages
// and restart counters, its per-tile active regions and saturation count,
// and the dedup pool's primary-input rows (witnesses under a projection)
// with their hit tallies — and RestoreSampler rebuilds a Sampler that
// continues the *byte-identical* solution stream an uninterrupted run
// would have produced (the invariant guarded by
// TestSnapshotResumeEquivalence).
//
// A snapshot stores a value only if it cannot be recomputed, and restore
// re-verifies what it rebuilds. The packed verifier view (hardened
// columns, validity masks, projected columns, changed flags) is a
// function of V, so restore marks every lane changed and the first tick
// repacks and re-verifies the whole batch. The pool's keys and dedup
// hashes are functions of its rows: restore packs the rows into the
// session's columns, 64 lanes per word, and sweeps them with the
// session's verifier, refusing a row that is not a model (assumption pins
// included), a row with a bit set past its width, and a row whose key
// repeats an earlier one; under a projection each key is its witness's
// swept signature, and the pool's insert recomputes every hash. A forged
// snapshot can therefore steer its own session's search, but it cannot
// make the session deliver a non-model or a duplicate.
//
// Scratch that is dead between ticks — the per-word dirty mask, the
// per-sweep retirement flags, the per-worker value/adjoint tiles — is not
// captured either: every tick rebuilds it before reading it.
//
// The codec is a versioned, length-prefixed little-endian binary format
// (a field list over internal/envelope) keyed by the Problem's content
// hash: a snapshot only restores onto the identical compiled artifact
// (same formula, same projection identity). Every length field is
// bounds-checked against the remaining input before allocation and the
// whole payload is covered by a trailing CRC32, so a truncated or
// corrupted snapshot yields a clean error — never a panic, never a
// half-restored session (FuzzDecodeSnapshot guards this). The flag byte
// defines three bits (scheduler running, exhausted, projection) and decode
// refuses every other, so the codec is canonical: a blob that decodes
// re-encodes to the same bytes.

// SnapshotVersion is the current snapshot codec version. Decode rejects
// any other version: a checkpoint outlives the process that wrote it, so
// silent cross-version reinterpretation is never acceptable.
const SnapshotVersion = 2

// snapshotMagic opens every encoded snapshot.
const snapshotMagic = "GDSS"

// ErrBadSnapshot is wrapped by every snapshot decode/restore failure, so
// callers can map "this token is garbage" to a clean client error without
// string matching.
var ErrBadSnapshot = errors.New("core: invalid snapshot")

// Snapshot is the decoded form of one session checkpoint. It is immutable
// once created (restore copies it, so one Snapshot may be restored any
// number of times); MarshalBinary and DecodeSnapshot convert to and from
// the portable binary form, and RestoreSampler turns it back into a live
// session over the identical compiled Problem.
type Snapshot struct {
	key       string // Problem.Key of the compiled artifact
	numInputs int    // primary inputs of the compiled engine

	// Config (post-default; Device is captured as its worker count only —
	// streams are deterministic across worker counts, so a snapshot may be
	// restored onto any device).
	batch, iterations, maxAge int
	lr, initRange             float32
	seed                      int64
	workers                   int
	hasProj                   bool
	projection                []int

	round int64
	stats Stats

	vdata []float32 // V matrix, row-major batch×n

	// Scheduler state. contReady is clear when the session last ran the
	// round loop or never started the scheduler: the next ContinuousStep
	// re-seeds, keeping only the restart counters.
	contReady bool
	exhausted bool
	ages      []int32
	restarts  []uint32
	active    []int32
	staleRet  int

	// Dedup pool in discovery order: each solution's packed primary-input
	// row (its witness under a projection) and retirement tally. The codec
	// stores each row as its (numInputs+7)/8 low bytes.
	rows  []uint64 // nsols × rowWords
	nsols int
	hits  []int32
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

// UniqueCount returns the number of unique solutions in the snapshot's
// dedup pool.
func (sn *Snapshot) UniqueCount() int { return sn.nsols }

// Stats returns the session's accumulated statistics at checkpoint time.
func (sn *Snapshot) Stats() Stats { return sn.stats }

// Shape returns the shape a session restored from sn prices at on a device
// with the given workers, streaming to target: the checkpoint fixes the
// batch, projection and the pool it already holds.
func (sn *Snapshot) Shape(workers, target int) Shape {
	return Shape{Workers: workers, Batch: sn.batch, Target: target, Retained: sn.nsols,
		Projection: len(sn.projection)}
}

// Snapshot captures the per-session state a restore cannot recompute,
// between sampling calls. It must not run concurrently with Round/ContinuousStep/
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
		seed:       s.cfg.Seed,
		workers:    s.cfg.Device.Workers(),
		hasProj:    s.projection != nil,
		round:      s.round,
		stats:      s.stats,
		vdata:      append([]float32(nil), s.vmat.Data...),
		contReady:  s.contReady,
		exhausted:  s.exhausted,
		ages:       append([]int32(nil), s.ages...),
		restarts:   append([]uint32(nil), s.restarts...),
		active:     append([]int32(nil), s.active...),
		staleRet:   s.staleRet,
		nsols:      s.pool.Len(),
		hits:       append([]int32(nil), s.hits...),
	}
	if s.projection != nil {
		sn.projection = append([]int(nil), s.projection...)
	}
	sn.rows = make([]uint64, 0, sn.nsols*s.inRows.words)
	for i := 0; i < sn.nsols; i++ {
		sn.rows = append(sn.rows, s.inputRow(i)...)
	}
	return sn
}

// RestoreSampler rebuilds a sampler session from a snapshot over the
// identical compiled Problem, on dev (the zero Device runs on one
// worker). The restored session continues the byte-identical solution
// stream of an uninterrupted run for the same seed: streams are
// deterministic across worker counts, so a snapshot taken on one device
// restores onto any other. The snapshot's own worker count is decoded
// input and never sizes the device.
func RestoreSampler(p *Problem, sn *Snapshot, dev tensor.Device) (*Sampler, error) {
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
		BatchSize:    sn.batch,
		Iterations:   sn.iterations,
		LearningRate: sn.lr,
		Seed:         sn.seed,
		Device:       dev,
		InitRange:    sn.initRange,
		MaxAge:       sn.maxAge,
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
	s.round = sn.round
	s.stats = sn.stats
	s.exhausted = sn.exhausted

	if err := s.restoreScheduler(sn); err != nil {
		return nil, err
	}
	if err := s.restorePool(sn); err != nil {
		return nil, err
	}
	if s.stats.Unique != s.pool.Len() {
		return nil, fmt.Errorf("%w: stats report %d unique, pool holds %d", ErrBadSnapshot, s.stats.Unique, s.pool.Len())
	}
	// The packed view is V's, hardened: the first sweep rebuilds it from
	// V and re-verifies every lane (restorePool used it as scratch).
	s.markAllChanged()
	return s, nil
}

// restoreScheduler restores the scheduler's per-row and per-tile arrays,
// refusing any that do not fit the session's batch and tiles.
func (s *Sampler) restoreScheduler(sn *Snapshot) error {
	batch := s.cfg.BatchSize
	if len(sn.ages) != batch || len(sn.restarts) != batch {
		return fmt.Errorf("%w: scheduler rows (%d ages, %d restarts) for batch %d", ErrBadSnapshot, len(sn.ages), len(sn.restarts), batch)
	}
	if len(sn.active) != s.numTiles {
		return fmt.Errorf("%w: %d active tiles, want %d", ErrBadSnapshot, len(sn.active), s.numTiles)
	}
	s.activeRows = 0
	for t, a := range sn.active {
		if a < 0 || int(a) > s.tileCap(t) {
			return fmt.Errorf("%w: tile %d active %d exceeds capacity %d", ErrBadSnapshot, t, a, s.tileCap(t))
		}
		s.activeRows += int(a)
	}
	copy(s.ages, sn.ages)
	copy(s.restarts, sn.restarts)
	copy(s.active, sn.active)
	s.staleRet = sn.staleRet
	s.contReady = sn.contReady
	return nil
}

// restorePool rebuilds the dedup pool from the snapshot's rows and hit
// tallies. The rows are packed into the session's columns, 64 lanes per
// word, and swept by the session's verifier; each is then inserted in
// discovery order, keyed by itself or, under a projection, by its swept
// signature. A row that is not a model, that has a bit set past its width
// or whose key repeats an earlier one is refused, as is a tally below 1.
func (s *Sampler) restorePool(sn *Snapshot) error {
	n := s.prob.eng.numInputs
	rowWords := s.inRows.words
	nsols := sn.nsols
	if len(sn.rows) != nsols*rowWords || len(sn.hits) != nsols {
		return fmt.Errorf("%w: pool arrays (%d row words, %d hits) for %d solutions × %d inputs",
			ErrBadSnapshot, len(sn.rows), len(sn.hits), nsols, n)
	}
	keyWidth := n
	if s.projPlan != nil {
		keyWidth = len(s.projection)
	}
	s.pool = bitblast.NewRowSet(keyWidth, nsols)
	lanes := 64 * len(s.valid)
	for lo := 0; lo < nsols; lo += lanes {
		hi := min(lo+lanes, nsols)
		s.packRows(sn.rows[lo*rowWords : hi*rowWords])
		s.vevals[0].Sweep(s.cols, 0, (hi-lo+63)/64, nil, s.valid, s.projCols)
		s.resetRows()
		for i := lo; i < hi; i++ {
			r := i - lo
			key := sn.rows[i*rowWords : (i+1)*rowWords]
			switch {
			case sn.hits[i] < 1:
				return fmt.Errorf("%w: solution %d has hit tally %d", ErrBadSnapshot, i, sn.hits[i])
			case padded(key, n):
				return fmt.Errorf("%w: solution %d has a bit set past its width", ErrBadSnapshot, i)
			case s.valid[r>>6]>>(uint(r)&63)&1 == 0:
				return fmt.Errorf("%w: solution %d is not a model", ErrBadSnapshot, i)
			}
			if s.projPlan != nil {
				key = s.projRows.row(s.projCols, r)
			}
			if _, added := s.pool.Insert(key); !added {
				return fmt.Errorf("%w: solution %d repeats an earlier key", ErrBadSnapshot, i)
			}
		}
	}
	s.hits = append([]int32(nil), sn.hits...)
	if s.projPlan != nil {
		s.wit = append([]uint64(nil), sn.rows...)
	}
	return nil
}

// packRows packs primary-input rows into the columns, row r at lane r,
// one 64×64 transpose per 64 lanes and 64 inputs; at most 64·len(valid)
// rows fit. Lanes past the last row hold zeros in the words the rows
// reach and keep their bits in the others.
func (s *Sampler) packRows(rows []uint64) {
	n, rowWords := s.prob.eng.numInputs, s.inRows.words
	nrows := len(rows) / rowWords
	var blk [64]uint64
	for w := 0; w*64 < nrows; w++ {
		lanes := min(64, nrows-w*64)
		for k := 0; k < rowWords; k++ {
			for l := 0; l < lanes; l++ {
				blk[l] = rows[(w*64+l)*rowWords+k]
			}
			clear(blk[lanes:])
			transpose64(&blk)
			for j, col := range s.cols[k<<6 : min(k<<6+64, n)] {
				col[w] = blk[j]
			}
		}
	}
}

// padded reports whether a packed row of width bits has a bit set past
// its width.
func padded(row []uint64, width int) bool {
	return width&63 != 0 && row[len(row)-1]>>(uint(width)&63) != 0
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

// snapshot flag bits. Decode refuses every bit outside snapFlags, so a
// decoded snapshot re-encodes to its input bytes.
const (
	snapFlagContReady  = 1 << 2
	snapFlagExhausted  = 1 << 3
	snapFlagProjection = 1 << 4
	snapFlags          = snapFlagContReady | snapFlagExhausted | snapFlagProjection
)

// MarshalBinary encodes the snapshot in the versioned binary format. The
// result is self-contained: DecodeSnapshot needs no Problem to parse and
// validate it (RestoreSampler then checks it against one).
func (sn *Snapshot) MarshalBinary() ([]byte, error) {
	if len(sn.key) > 0xFFFF {
		return nil, fmt.Errorf("%w: oversized key", ErrBadSnapshot)
	}
	n := sn.numInputs
	rowBytes, rowWords := (n+7)/8, (n+63)/64
	est := 192 + len(sn.key) + 4*len(sn.projection) + 4*len(sn.vdata) +
		8*len(sn.ages) + 4*len(sn.active) + sn.nsols*(rowBytes+4)
	e := envelope.NewEncoder(snapshotMagic, SnapshotVersion, est)
	e.Str(sn.key)
	e.U32(uint32(sn.batch))
	e.U32(uint32(sn.iterations))
	e.U32(uint32(sn.maxAge))
	e.F32(sn.lr)
	e.F32(sn.initRange)
	e.U64(uint64(sn.seed))
	e.U32(uint32(sn.workers))
	e.U32(uint32(n))
	var flags uint8
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
	e.I32s(sn.ages)
	e.U32s(sn.restarts)
	e.I32s(sn.active)
	e.U64(uint64(sn.staleRet))

	e.U32(uint32(sn.nsols))
	raw := e.Grow(sn.nsols * rowBytes)
	for i := 0; i < sn.nsols; i++ {
		row, out := sn.rows[i*rowWords:(i+1)*rowWords], raw[i*rowBytes:(i+1)*rowBytes]
		for k := range out {
			out[k] = byte(row[k>>3] >> (8 * (k & 7)))
		}
	}
	e.I32s(sn.hits)
	return e.Seal(envelope.CRC32), nil
}

// DecodeSnapshot parses and validates an encoded snapshot. It never
// panics: truncated, corrupted, or version-mismatched input returns an
// error wrapping ErrBadSnapshot, and no partially decoded state escapes.
// The returned Snapshot holds copies: it does not alias data, and neither
// does a session restored from it.
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
	sn.seed = int64(d.U64())
	sn.workers = int(d.U32())
	sn.numInputs = int(d.U32())
	flags := d.U8()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if flags&^snapFlags != 0 {
		return nil, fmt.Errorf("%w: undefined flag bits %#02x", ErrBadSnapshot, flags&^snapFlags)
	}
	sn.contReady = flags&snapFlagContReady != 0
	sn.exhausted = flags&snapFlagExhausted != 0
	sn.hasProj = flags&snapFlagProjection != 0

	const maxDim = 1 << 24 // sanity bound on batch/inputs: far past any real session
	if sn.batch < 1 || sn.batch > maxDim || sn.numInputs < 1 || sn.numInputs > maxDim {
		return nil, fmt.Errorf("%w: implausible shape batch=%d inputs=%d", ErrBadSnapshot, sn.batch, sn.numInputs)
	}
	// A session's config is post-default: no field the defaults fill is 0.
	if sn.iterations < 1 || sn.maxAge < 1 || sn.lr == 0 || sn.initRange == 0 || sn.workers < 1 || sn.workers > maxDim {
		return nil, fmt.Errorf("%w: implausible config iters=%d maxAge=%d lr=%g init=%g workers=%d",
			ErrBadSnapshot, sn.iterations, sn.maxAge, sn.lr, sn.initRange, sn.workers)
	}

	if sn.hasProj {
		sn.projection = d.Ints("projection")
		if len(sn.projection) == 0 {
			d.Fail("projection flag set with zero variables")
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

	sn.vdata = d.F32s("V data")
	if d.Err() == nil && len(sn.vdata) != sn.batch*sn.numInputs {
		d.Fail("V data has %d values for batch %d × %d inputs", len(sn.vdata), sn.batch, sn.numInputs)
	}
	sn.ages = d.I32s("row ages")
	sn.restarts = d.U32s("restart counters")
	if d.Err() == nil && (len(sn.ages) != sn.batch || len(sn.restarts) != sn.batch) {
		d.Fail("scheduler rows (%d ages, %d restarts) for batch %d", len(sn.ages), len(sn.restarts), sn.batch)
	}
	sn.active = d.I32s("active tiles")
	sn.staleRet = int(d.U64())

	rowBytes, rowWords := (sn.numInputs+7)/8, (sn.numInputs+63)/64
	nsols := d.Count(rowBytes+4, "solutions")
	if d.Err() == nil && nsols != sn.stats.Unique {
		d.Fail("pool holds %d solutions, stats report %d", nsols, sn.stats.Unique)
	}
	sn.nsols = nsols
	if raw := d.Take(nsols * rowBytes); d.Err() == nil {
		sn.rows = make([]uint64, nsols*rowWords)
		for i := 0; i < nsols; i++ {
			row := sn.rows[i*rowWords : (i+1)*rowWords]
			for k, b := range raw[i*rowBytes : (i+1)*rowBytes] {
				row[k>>3] |= uint64(b) << (8 * (k & 7))
			}
		}
	}
	sn.hits = d.I32s("hit tallies")
	if d.Err() == nil && len(sn.hits) != nsols {
		d.Fail("%d hit tallies for %d solutions", len(sn.hits), nsols)
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return sn, nil
}
