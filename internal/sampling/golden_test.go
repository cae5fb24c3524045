package sampling

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"repro/internal/envelope"
	"repro/internal/tensor"
)

// goldenCheckpoints are GDSC envelopes committed under testdata/, written
// by continuous sessions over benchgen's or-12-3-small on a sequential
// device at batch 64: each session streamed toward target, stopped after
// a few deliveries and checkpointed. The .stream file named by stream
// holds the solutions the interrupted leg and the resumed leg delivered
// together, one 0/1 string per line. gdsc_v3 is unpinned and
// gdsc_v3_pins pinned -1 -2; gdsc_v1 and gdsc_v2 are the same two cuts
// in the earlier layouts, which also carried a session name and a stale
// counter and wrote the assumption block only for pinned sessions. Decode
// refuses those.
var goldenCheckpoints = []struct {
	name    string
	version uint16
	stream  string
	target  int
}{
	{"gdsc_v1", 1, "gdsc_v1", 160},
	{"gdsc_v2", 2, "gdsc_v2", 120},
	{"gdsc_v3", 3, "gdsc_v1", 160},
	{"gdsc_v3_pins", 3, "gdsc_v2", 120},
}

// readGolden reads a fixture envelope and the stream it resumes to. An
// envelope of an earlier layout must be refused with ErrBadCheckpoint;
// for those it reports false and the caller checks nothing more.
func readGolden(t *testing.T, name, stream string, version uint16) ([]byte, []string, bool) {
	t.Helper()
	env, err := os.ReadFile("testdata/" + name + ".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(env[4:]); v != version {
		t.Fatalf("fixture is envelope version %d, want %d", v, version)
	}
	if version != CheckpointVersion {
		if _, err := DecodeCheckpoint(env); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("earlier layout: decode error %v, want ErrBadCheckpoint", err)
		}
		return nil, nil, false
	}
	text, err := os.ReadFile("testdata/" + stream + ".stream")
	if err != nil {
		t.Fatal(err)
	}
	return env, strings.Fields(string(text)), true
}

// TestGoldenCheckpointResume: the committed current-layout envelopes
// decode, and a cold resume continues exactly the stream recorded when
// they were written; the earlier-layout ones are refused.
// The decoded checkpoint owns its memory: the envelope bytes are
// overwritten before the resume, as a server reusing a spool buffer would.
func TestGoldenCheckpointResume(t *testing.T) {
	for _, g := range goldenCheckpoints {
		t.Run(g.name, func(t *testing.T) {
			env, want, current := readGolden(t, g.name, g.stream, g.version)
			if !current {
				return
			}
			ck, err := DecodeCheckpoint(env)
			if err != nil {
				t.Fatal(err)
			}
			for i := range env {
				env[i] = 0xA5
			}
			s, err := NewCompiler(4).Resume(ck, tensor.Device{})
			if err != nil {
				t.Fatal(err)
			}
			got := append([]string(nil), want[:ck.Delivered()]...)
			if _, err := s.Stream(context.Background(), g.target, collectSink(&got, -1)); err != nil {
				t.Fatal(err)
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("resumed stream differs from the recorded one (%d vs %d solutions)", len(got), len(want))
			}
		})
	}
}

// TestGoldenCheckpointBytes: Session.Checkpoint writes the committed bytes.
// A decoded envelope's snapshot re-encodes byte for byte, a restored
// session re-encodes its envelope byte for byte, and a fresh
// session run to the same cut writes it again except for the snapshot's
// wall-clock Elapsed, the one field two identical runs do not share.
func TestGoldenCheckpointBytes(t *testing.T) {
	for _, g := range goldenCheckpoints {
		t.Run(g.name, func(t *testing.T) {
			env, want, current := readGolden(t, g.name, g.stream, g.version)
			if !current {
				return
			}
			ck, err := DecodeCheckpoint(env)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := ck.Snapshot().MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, embeddedSnapshot(t, env)) {
				t.Fatal("decoded snapshot re-encodes different bytes")
			}
			comp := NewCompiler(4)
			restored, err := comp.Resume(ck, tensor.Device{})
			if err != nil {
				t.Fatal(err)
			}
			again, err := restored.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, env) {
				t.Fatal("restored session re-encodes a different envelope")
			}

			p, err := comp.CompileAssume(ck.Formula(), ck.Assumptions())
			if err != nil {
				t.Fatal(err)
			}
			sn := ck.Snapshot()
			s, err := p.NewSession(SessionConfig{Seed: sn.Seed(), BatchSize: sn.Batch(), Device: tensor.Sequential()})
			if err != nil {
				t.Fatal(err)
			}
			var first []string
			if _, err := s.Stream(context.Background(), g.target, collectSink(&first, ck.Delivered())); err != nil {
				t.Fatal(err)
			}
			fresh, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(zeroElapsed(t, fresh), zeroElapsed(t, env)) {
				t.Fatal("a fresh run to the same cut writes a different envelope")
			}
			if strings.Join(first, "\n") != strings.Join(want[:len(first)], "\n") {
				t.Fatal("fresh run's first leg differs from the recorded stream")
			}
		})
	}
}

// zeroElapsed returns a copy of an unprojected session envelope with the
// core snapshot's Elapsed field zeroed.
func zeroElapsed(t *testing.T, env []byte) []byte {
	t.Helper()
	return resealSnapshot(t, env, func(blob []byte) {
		off := snapshotWorkers(blob) + 4 + 4       // workers, inputs
		if flags := blob[off]; flags&(1<<4) != 0 { // core's projection flag
			t.Fatal("zeroElapsed does not handle projected snapshots")
		}
		off += 1       // flags
		off += 8 + 8*8 // round; eight counters before Elapsed
		clear(blob[off : off+8])
	})
}

// snapshotWorkers returns the offset of a core snapshot's u32 worker
// count: past the magic, version, key, batch, iterations, max age, lr,
// init range and seed.
func snapshotWorkers(blob []byte) int {
	return 4 + 2 + 2 + int(binary.LittleEndian.Uint16(blob[6:])) + 4*3 + 4*2 + 8
}

// embeddedSnapshot returns the core snapshot blob of a session envelope,
// aliasing env.
func embeddedSnapshot(t *testing.T, env []byte) []byte {
	t.Helper()
	d, err := envelope.Open(env, "GDSC", envelope.SHA256, CheckpointVersion, CheckpointVersion, ErrBadCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	d.U64() // delivered
	d.Bytes("formula")
	d.I32s("assumptions")
	blob := d.Bytes("core snapshot")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return blob
}

// resealSnapshot returns a copy of a session envelope with edit applied to
// its embedded core snapshot, and the snapshot CRC and envelope digest
// recomputed.
func resealSnapshot(t *testing.T, env []byte, edit func(blob []byte)) []byte {
	t.Helper()
	out := append([]byte(nil), env...)
	blob := embeddedSnapshot(t, out)
	edit(blob)
	binary.LittleEndian.PutUint32(blob[len(blob)-4:], crc32.ChecksumIEEE(blob[:len(blob)-4]))
	sum := sha256.Sum256(out[:len(out)-sha256.Size])
	copy(out[len(out)-sha256.Size:], sum[:])
	return out
}

// TestGoldenRoundModeCheckpointRejected: sessions no longer run the round
// loop, so an envelope a round-mode session wrote fails cleanly with
// ErrBadCheckpoint.
func TestGoldenRoundModeCheckpointRejected(t *testing.T) {
	round, err := os.ReadFile("testdata/gdsc_round.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(round); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("round-mode envelope: err = %v, want ErrBadCheckpoint", err)
	}
}
