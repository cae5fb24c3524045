package sampling

// Session checkpoints: the service-layer envelope over core snapshots.
//
// A core.Snapshot holds the sampler state no computation recovers and
// restores only onto an already-compiled Problem. A service that restarts
// loses its compile cache, so the session checkpoint also embeds the
// DIMACS text of the formula and its assumption set: a checkpoint is
// self-contained — decode, recompile (through the Compiler's cache when
// warm, from the embedded text when cold), restore, and the stream
// continues at exactly the next undelivered solution. Like the snapshot,
// it stores a value only if it cannot be recomputed, and restore
// re-verifies what it rebuilds: the snapshot's key must be the content
// hash of the embedded formula and assumptions, and every pooled row —
// the undelivered backlog included — must be a model.
//
// Envelope ("GDSC", version 3, little-endian, length-prefixed):
//
//	magic "GDSC" | u16 version | u64 delivered | bytes formula (DIMACS)
//	| i32s assumptions | bytes core snapshot | sha256 digest
//
// where bytes is a u32 length + payload and i32s a u32 count + that many
// i32 literals (count 0 for a session without pins). Decode refuses every
// other version. The trailing SHA-256 covers every preceding byte, so any
// truncation or flip — including inside the embedded core blob, which
// carries its own CRC — is rejected before any field is interpreted.
// Decoding never panics; every failure wraps ErrBadCheckpoint. Encoding
// is canonical: decode→encode is byte-identical.

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/tensor"
)

// CheckpointVersion is the envelope format version this build writes and
// reads.
const CheckpointVersion = 3

// ErrBadCheckpoint is wrapped by every checkpoint decode/restore failure:
// corrupt or truncated envelopes, version or digest mismatches, and
// restore attempts against the wrong problem.
var ErrBadCheckpoint = errors.New("sampling: bad checkpoint")

const checkpointMagic = "GDSC"

// Checkpoint is a decoded session checkpoint: the formula, the core
// sampler snapshot, and the stream cursor. It is immutable once decoded.
type Checkpoint struct {
	delivered int
	formula   *cnf.Formula
	assume    []cnf.Lit
	snap      *core.Snapshot
}

// Key returns the content hash identifying the compiled artifact this
// checkpoint belongs to: HashFormula of the embedded formula, folded with
// the assumption set when present (cnf.AssumeKey).
func (c *Checkpoint) Key() string { return c.snap.Key() }

// Assumptions returns the assumption literals the checkpointed session's
// problem was specialized under (nil for an unassumed session).
func (c *Checkpoint) Assumptions() []cnf.Lit {
	if len(c.assume) == 0 {
		return nil
	}
	return append([]cnf.Lit(nil), c.assume...)
}

// Delivered returns the stream cursor: how many solutions the session had
// already handed to its sink when the checkpoint was taken.
func (c *Checkpoint) Delivered() int { return c.delivered }

// Formula returns the embedded CNF. The caller must not mutate it — a
// restored session's compiled problem may share it.
func (c *Checkpoint) Formula() *cnf.Formula { return c.formula }

// Snapshot returns the embedded core sampler snapshot.
func (c *Checkpoint) Snapshot() *core.Snapshot { return c.snap }

// Checkpoint serializes the session's complete resumable state. The
// session must be quiescent (between Stream calls, or inside a cancelled
// one) — checkpointing a session whose Stream is running on another
// goroutine races with the scheduler. The returned bytes alias nothing:
// they stay valid however the session is used afterwards, and the
// session itself is untouched and continues exactly as if never
// checkpointed.
func (s *Session) Checkpoint() ([]byte, error) {
	blob, err := s.core.Snapshot().MarshalBinary()
	if err != nil {
		return nil, err
	}
	text := s.prob.Formula().DIMACSString()
	assume := s.prob.core.Assumptions()
	lits := make([]int32, len(assume))
	for i, l := range assume {
		lits[i] = int32(l)
	}
	n := 4 + 2 + // magic, version
		8 + // delivered
		4 + len(text) +
		4 + 4*len(lits) +
		4 + len(blob) +
		envelope.SHA256.Size()
	e := envelope.NewEncoder(checkpointMagic, CheckpointVersion, n)
	e.U64(uint64(s.delivered))
	e.Bytes([]byte(text))
	e.I32s(lits)
	e.Bytes(blob)
	return e.Seal(envelope.SHA256), nil
}

// DecodeCheckpoint parses and fully validates a checkpoint envelope: the
// digest, every field bound, the embedded formula (reparsed from its
// DIMACS text), the core snapshot, and the cross-checks tying them
// together (the formula's content hash must equal the snapshot's key; the
// delivered cursor must not exceed the snapshot's solution count). It
// never panics on arbitrary input, and it does not retain data — the
// returned Checkpoint owns all its memory.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	d, err := envelope.Open(data, checkpointMagic, envelope.SHA256, CheckpointVersion, CheckpointVersion, ErrBadCheckpoint)
	if err != nil {
		return nil, err
	}
	delivered := d.U64()
	text := d.Bytes("formula")
	lits := d.I32s("assumptions")
	blob := d.Bytes("core snapshot")
	if err := d.Close(); err != nil {
		return nil, err
	}
	var assume []cnf.Lit
	for _, l := range lits {
		assume = append(assume, cnf.Lit(l))
	}
	// Resume tokens arrive over the network, so the embedded formula is
	// re-parsed under the same service-grade bounds submissions face —
	// anything the server admitted in the first place fits them.
	f, err := cnf.ParseDIMACSLimits(bytes.NewReader(text), cnf.DefaultParseLimits())
	if err != nil {
		return nil, fmt.Errorf("%w: embedded formula: %v", ErrBadCheckpoint, err)
	}
	snap, err := core.DecodeSnapshot(blob)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if err := cnf.ValidateCanonicalAssume(f.NumVars, assume); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	// AssumeKey degenerates to the content hash for an empty assumption
	// set, so one cross-check covers sessions with and without pins.
	if key := cnf.AssumeKey(HashFormula(f), assume); key != snap.Key() {
		return nil, fmt.Errorf("%w: embedded content hashes to %.12s but snapshot is keyed %.12s", ErrBadCheckpoint, key, snap.Key())
	}
	if delivered > uint64(snap.UniqueCount()) {
		return nil, fmt.Errorf("%w: delivered cursor %d exceeds the snapshot's %d solutions", ErrBadCheckpoint, delivered, snap.UniqueCount())
	}
	return &Checkpoint{
		delivered: int(delivered),
		formula:   f,
		assume:    assume,
		snap:      snap,
	}, nil
}

// RestoreSession rebuilds a session from a checkpoint on this problem,
// which must be the compiled form of the checkpoint's formula (the warm
// cache path: the server looked the key up before decoding the formula at
// all). The session runs on dev (the zero Device runs on one worker);
// streams are deterministic across devices, so any dev resumes the
// identical stream.
func (p *Problem) RestoreSession(ck *Checkpoint, dev tensor.Device) (*Session, error) {
	if ck == nil {
		return nil, fmt.Errorf("%w: nil checkpoint", ErrBadCheckpoint)
	}
	s, err := core.RestoreSampler(p.core, ck.snap, dev)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	return &Session{
		prob:      p,
		core:      s,
		delivered: ck.delivered,
		stats: Stats{
			Unique:    s.UniqueCount(),
			Calls:     0, // per-process driver accounting restarts with the process
			Exhausted: false,
		},
	}, nil
}

// Resume restores a checkpointed session through this compiler: the
// embedded formula compiles through the content-hash cache (a hit when
// the artifact is still resident, a fresh compile after a cold restart),
// specialized under the envelope's assumption set when one is present,
// then the snapshot restores onto the shared problem. This is the
// server's re-admission path; a one-shot caller such as a CLI resumes
// through NewCompiler(1).
func (c *Compiler) Resume(ck *Checkpoint, dev tensor.Device) (*Session, error) {
	if ck == nil {
		return nil, fmt.Errorf("%w: nil checkpoint", ErrBadCheckpoint)
	}
	p, err := c.CompileAssume(ck.formula, ck.assume)
	if err != nil {
		return nil, fmt.Errorf("%w: recompiling embedded formula: %v", ErrBadCheckpoint, err)
	}
	return p.RestoreSession(ck, dev)
}
