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
// a few deliveries and checkpointed. The .stream file beside each holds
// the solutions the interrupted leg and the resumed leg delivered
// together, one 0/1 string per line.
var goldenCheckpoints = []struct {
	name    string
	version uint16
	target  int
}{
	{"gdsc_v1", 1, 160}, // unassumed: version-1 envelope
	{"gdsc_v2", 2, 120}, // pinned -1 -2: version-2 envelope
}

func readGolden(t *testing.T, name string) ([]byte, []string) {
	t.Helper()
	env, err := os.ReadFile("testdata/" + name + ".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile("testdata/" + name + ".stream")
	if err != nil {
		t.Fatal(err)
	}
	return env, strings.Fields(string(text))
}

// TestGoldenCheckpointResume: the committed envelopes still decode, and a
// cold resume continues exactly the stream recorded when they were written.
func TestGoldenCheckpointResume(t *testing.T) {
	for _, g := range goldenCheckpoints {
		t.Run(g.name, func(t *testing.T) {
			env, want := readGolden(t, g.name)
			if v := binary.LittleEndian.Uint16(env[4:]); v != g.version {
				t.Fatalf("fixture is envelope version %d, want %d", v, g.version)
			}
			ck, err := DecodeCheckpoint(env)
			if err != nil {
				t.Fatal(err)
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
// A restored session re-encodes its envelope byte for byte, and a fresh
// session run to the same cut writes it again except for the snapshot's
// wall-clock Elapsed, the one field two identical runs do not share.
func TestGoldenCheckpointBytes(t *testing.T) {
	for _, g := range goldenCheckpoints {
		t.Run(g.name, func(t *testing.T) {
			env, want := readGolden(t, g.name)
			ck, err := DecodeCheckpoint(env)
			if err != nil {
				t.Fatal(err)
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
// core snapshot's Elapsed field zeroed and the snapshot CRC and envelope
// digest recomputed.
func zeroElapsed(t *testing.T, env []byte) []byte {
	t.Helper()
	out := append([]byte(nil), env...)
	d, err := envelope.Open(out, "GDSC", envelope.SHA256, 1, CheckpointVersion, ErrBadCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	d.Bytes("name")
	d.Take(12) // delivered, stale
	d.Bytes("formula")
	if d.Version == CheckpointVersion {
		d.Bytes("assumptions")
	}
	blob := d.Bytes("core snapshot")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Snapshot header: magic, version, key, batch, iterations, max age,
	// lr, init range, momentum, seed, workers, inputs, flags.
	off := 4 + 2 + 2 + int(binary.LittleEndian.Uint16(blob[6:]))
	off += 4*3 + 4*3 + 8 + 4 + 4
	if flags := blob[off]; flags&(1<<4) != 0 { // core's projection flag
		t.Fatal("zeroElapsed does not handle projected snapshots")
	}
	off++
	off += 4 + 8*int(binary.LittleEndian.Uint32(blob[off:])) // clause weights
	off += 8 + 8*8                                           // round; eight counters before Elapsed
	clear(blob[off : off+8])
	binary.LittleEndian.PutUint32(blob[len(blob)-4:], crc32.ChecksumIEEE(blob[:len(blob)-4]))
	sum := sha256.Sum256(out[:len(out)-sha256.Size])
	copy(out[len(out)-sha256.Size:], sum[:])
	return out
}

// TestGoldenRoundModeCheckpointRejected: sessions no longer run the round
// loop, so an envelope a round-mode session wrote — or any envelope with
// a non-zero stale field — fails cleanly with ErrBadCheckpoint.
func TestGoldenRoundModeCheckpointRejected(t *testing.T) {
	round, err := os.ReadFile("testdata/gdsc_round.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(round); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("round-mode envelope: err = %v, want ErrBadCheckpoint", err)
	}
	env, _ := readGolden(t, "gdsc_v1")
	stale := append([]byte(nil), env...)
	off := 4 + 2 + 4 + int(binary.LittleEndian.Uint32(stale[6:])) + 8
	binary.LittleEndian.PutUint32(stale[off:], 1)
	if _, err := DecodeCheckpoint(reseal(stale)); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("non-zero stale field: err = %v, want ErrBadCheckpoint", err)
	}
}
