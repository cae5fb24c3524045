package sampling

// Session checkpoints: the service-layer envelope over core snapshots.
//
// A core.Snapshot captures the sampler's exact GD/scheduler/pool state but
// restores only onto an already-compiled Problem. A service that restarts
// loses its compile cache, so the session checkpoint additionally embeds
// the DIMACS text of the formula itself: a checkpoint is self-contained —
// decode, recompile (through the Compiler's cache when warm, from the
// embedded text when cold), restore, and the stream continues at exactly
// the next undelivered solution.
//
// Envelope ("GDSC", little-endian, length-prefixed):
//
//	magic "GDSC" | u16 version | str name | u64 delivered | u32 stale
//	| str formula (DIMACS) | [v2: bytes assumptions] | bytes core snapshot
//	| sha256 digest
//
// where str/bytes are u32 length + payload. The stale field is always 0:
// it carried the zero-gain round counter of round-mode sessions, which no
// longer exist, and stays in the layout so continuous-session envelopes
// keep their bytes; an envelope with a non-zero stale field or a
// round-mode snapshot is rejected. Version 1 is the
// assumption-free envelope; version 2 adds the session's assumption
// literals (i32 each) between the formula and the snapshot and is only
// written when the session's problem carries assumptions, so every
// unassumed checkpoint stays a version-1 envelope older readers accept.
// The trailing SHA-256 covers every preceding byte, so any truncation or
// flip — including inside the embedded core blob, which carries its own
// CRC — is rejected before any field is interpreted. Decoding never
// panics; every failure wraps ErrBadCheckpoint. Encoding is canonical:
// decode→encode is byte-identical.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/tensor"
)

// CheckpointVersion is the envelope format version this build writes for
// sessions over a specialized problem; assumption-free sessions encode as
// checkpointVersionBase for backward compatibility.
const CheckpointVersion = 2

// checkpointVersionBase is the assumption-free envelope version.
const checkpointVersionBase = 1

// ErrBadCheckpoint is wrapped by every checkpoint decode/restore failure:
// corrupt or truncated envelopes, version or digest mismatches, and
// restore attempts against the wrong problem.
var ErrBadCheckpoint = errors.New("sampling: bad checkpoint")

var checkpointMagic = [4]byte{'G', 'D', 'S', 'C'}

// Checkpoint is a decoded session checkpoint: the formula, the core
// sampler snapshot, and the stream cursor. It is immutable once decoded.
type Checkpoint struct {
	name      string
	delivered int
	formula   *cnf.Formula
	assume    []cnf.Lit
	snap      *core.Snapshot
}

// Name returns the checkpointed session's name.
func (c *Checkpoint) Name() string { return c.name }

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
	text := s.prob.formula.DIMACSString()
	assume := s.prob.core.Assumptions()
	version := uint16(checkpointVersionBase)
	if len(assume) > 0 {
		version = CheckpointVersion
	}
	n := 4 + 2 + // magic, version
		4 + len(s.name) +
		8 + 4 + // delivered, stale
		4 + len(text) +
		4 + 4*len(assume) +
		4 + len(blob) +
		sha256.Size
	buf := make([]byte, 0, n)
	buf = append(buf, checkpointMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, version)
	buf = appendBlock(buf, []byte(s.name))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.delivered))
	buf = binary.LittleEndian.AppendUint32(buf, 0) // stale
	buf = appendBlock(buf, []byte(text))
	if len(assume) > 0 {
		lits := make([]byte, 4*len(assume))
		for i, l := range assume {
			binary.LittleEndian.PutUint32(lits[4*i:], uint32(int32(l)))
		}
		buf = appendBlock(buf, lits)
	}
	buf = appendBlock(buf, blob)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...), nil
}

func appendBlock(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...)
}

// DecodeCheckpoint parses and fully validates a checkpoint envelope: the
// digest, every field bound, the embedded formula (reparsed from its
// DIMACS text), the core snapshot, and the cross-checks tying them
// together (the formula's content hash must equal the snapshot's key; the
// delivered cursor must not exceed the snapshot's solution count). It
// never panics on arbitrary input, and it does not retain data — the
// returned Checkpoint owns all its memory.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	const minLen = 4 + 2 + 4 + 8 + 4 + 4 + 4 + sha256.Size
	if len(data) < minLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any envelope", ErrBadCheckpoint, len(data))
	}
	body, digest := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); [sha256.Size]byte(digest) != sum {
		return nil, fmt.Errorf("%w: digest mismatch (truncated or corrupted envelope)", ErrBadCheckpoint)
	}
	if [4]byte(body[:4]) != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	version := binary.LittleEndian.Uint16(body[4:6])
	if version != checkpointVersionBase && version != CheckpointVersion {
		return nil, fmt.Errorf("%w: version %d (this build reads versions %d-%d)", ErrBadCheckpoint, version, checkpointVersionBase, CheckpointVersion)
	}
	rest := body[6:]
	name, rest, err := takeBlock(rest, "session name")
	if err != nil {
		return nil, err
	}
	if len(rest) < 12 {
		return nil, fmt.Errorf("%w: truncated cursor fields", ErrBadCheckpoint)
	}
	delivered := binary.LittleEndian.Uint64(rest)
	stale := binary.LittleEndian.Uint32(rest[8:])
	rest = rest[12:]
	text, rest, err := takeBlock(rest, "formula")
	if err != nil {
		return nil, err
	}
	var assume []cnf.Lit
	if version == CheckpointVersion {
		raw, r, err := takeBlock(rest, "assumptions")
		if err != nil {
			return nil, err
		}
		rest = r
		if len(raw) == 0 || len(raw)%4 != 0 {
			return nil, fmt.Errorf("%w: assumption block of %d bytes (want a non-empty multiple of 4)", ErrBadCheckpoint, len(raw))
		}
		assume = make([]cnf.Lit, len(raw)/4)
		for i := range assume {
			assume[i] = cnf.Lit(int32(binary.LittleEndian.Uint32(raw[4*i:])))
		}
	}
	blob, rest, err := takeBlock(rest, "core snapshot")
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, len(rest))
	}
	// Resume tokens arrive over the network, so the embedded formula is
	// re-parsed under the same service-grade bounds submissions face —
	// anything the server admitted in the first place fits them.
	f, err := cnf.ParseDIMACSLimits(bytes.NewReader(text), cnf.DefaultParseLimits())
	if err != nil {
		return nil, fmt.Errorf("%w: embedded formula: %v", ErrBadCheckpoint, err)
	}
	// core.DecodeSnapshot aliases its input's pool section; copy the blob
	// so the Checkpoint owns all its memory and the caller may reuse or
	// discard data (the server decodes tokens out of a recycled spool).
	snap, err := core.DecodeSnapshot(append([]byte(nil), blob...))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if len(assume) > 0 {
		if err := cnf.ValidateAssumptions(f.NumVars, assume); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
		for i := 1; i < len(assume); i++ {
			if assume[i].Var() <= assume[i-1].Var() {
				return nil, fmt.Errorf("%w: assumption list not canonical at entry %d", ErrBadCheckpoint, i)
			}
		}
	}
	// AssumeKey degenerates to the content hash for an empty assumption
	// set, so one cross-check covers both envelope versions.
	if key := cnf.AssumeKey(HashFormula(f), assume); key != snap.Key() {
		return nil, fmt.Errorf("%w: embedded content hashes to %.12s but snapshot is keyed %.12s", ErrBadCheckpoint, key, snap.Key())
	}
	if delivered > uint64(snap.UniqueCount()) {
		return nil, fmt.Errorf("%w: delivered cursor %d exceeds the snapshot's %d solutions", ErrBadCheckpoint, delivered, snap.UniqueCount())
	}
	if stale != 0 || snap.RoundMode() {
		return nil, fmt.Errorf("%w: round-mode session checkpoint (sessions run only the continuous scheduler)", ErrBadCheckpoint)
	}
	return &Checkpoint{
		name:      string(name),
		delivered: int(delivered),
		formula:   f,
		assume:    assume,
		snap:      snap,
	}, nil
}

// takeBlock splits one u32-length-prefixed payload off the front of data.
func takeBlock(data []byte, what string) (payload, rest []byte, err error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("%w: truncated %s length", ErrBadCheckpoint, what)
	}
	n := binary.LittleEndian.Uint32(data)
	if uint64(n) > uint64(len(data)-4) {
		return nil, nil, fmt.Errorf("%w: %s claims %d bytes, %d remain", ErrBadCheckpoint, what, n, len(data)-4)
	}
	return data[4 : 4+n], data[4+n:], nil
}

// RestoreSession rebuilds a session from a checkpoint on this problem,
// which must be the compiled form of the checkpoint's formula (the warm
// cache path: the server looked the key up before decoding the formula at
// all). A zero dev restores on the device implied by the snapshot's
// worker count; streams are deterministic across devices, so any explicit
// dev resumes the identical stream.
func (p *Problem) RestoreSession(ck *Checkpoint, dev tensor.Device) (*Session, error) {
	if ck == nil {
		return nil, fmt.Errorf("%w: nil checkpoint", ErrBadCheckpoint)
	}
	var (
		s   *core.Sampler
		err error
	)
	if dev == (tensor.Device{}) {
		s, err = core.RestoreSampler(p.core, ck.snap)
	} else {
		s, err = core.RestoreSamplerOn(p.core, ck.snap, dev)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	return &Session{
		prob:      p,
		core:      s,
		name:      ck.name,
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
// server's re-admission path.
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

// RestoreSession is the cache-free one-shot resume: decode nothing, share
// nothing, just recompile the embedded formula (re-specializing when the
// envelope carries assumptions) and restore. CLI tools use it; services
// should prefer Compiler.Resume.
func RestoreSession(ck *Checkpoint, dev tensor.Device) (*Session, error) {
	if ck == nil {
		return nil, fmt.Errorf("%w: nil checkpoint", ErrBadCheckpoint)
	}
	p, err := CompileProblem(ck.formula)
	if err != nil {
		return nil, fmt.Errorf("%w: recompiling embedded formula: %v", ErrBadCheckpoint, err)
	}
	if len(ck.assume) > 0 {
		cp, err := core.Specialize(p.core, ck.assume)
		if err != nil {
			return nil, fmt.Errorf("%w: re-specializing embedded formula: %v", ErrBadCheckpoint, err)
		}
		p = &Problem{key: cp.Key(), formula: cp.Formula(), core: cp}
	}
	return p.RestoreSession(ck, dev)
}
