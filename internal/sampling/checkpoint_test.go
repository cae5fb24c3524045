package sampling

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/cnf"
	"repro/internal/tensor"
)

const ckptProjDIMACS = "c ind 1 4 7 10 0\np cnf 12 4\n1 2 3 0\n4 5 6 0\n7 8 9 0\n10 11 12 0\n"

// collectSink appends bit strings until limit deliveries, then stops the
// stream cleanly (limit < 0 never stops). The stop lands mid-flush when a
// tick retires several rows at once — exactly the awkward cut a checkpoint
// must survive: delivered < pool size, backlog owed to the client.
func collectSink(out *[]string, limit int) Sink {
	return func(sol []bool) error {
		*out = append(*out, bitString(sol))
		if limit >= 0 && len(*out) >= limit {
			return Stop
		}
		return nil
	}
}

// TestCheckpointResumeEquivalence is the session-level zero-loss
// invariant: interrupt a stream after any number of delivered solutions,
// checkpoint, decode the envelope, resume through a COLD compiler (the
// embedded formula recompiles from its DIMACS text — the post-restart
// path) on a different device, and the concatenation of the two streams
// must be byte-identical to the uninterrupted run.
func TestCheckpointResumeEquivalence(t *testing.T) {
	suite := benchgen.SmallSuite()
	variants := []struct {
		name    string
		formula *cnf.Formula
		cfg     SessionConfig
		resume  tensor.Device // zero value: derive from the snapshot
		target  int
	}{
		{"continuous-seq", suite[0].Formula,
			SessionConfig{Seed: 11, BatchSize: 128, Device: tensor.Sequential()},
			tensor.ParallelN(3), 40},
		{"continuous-7w", suite[1].Formula,
			SessionConfig{Seed: 5, BatchSize: 192, Device: tensor.ParallelN(7)},
			tensor.Device{}, 40},
		{"projected", mustParseCk(t, ckptProjDIMACS),
			SessionConfig{Seed: 9, BatchSize: 128, Device: tensor.Sequential()},
			tensor.ParallelN(3), 12},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			base, err := CompileProblem(v.formula)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := base.NewSession(v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			wantStats, err := ref.Stream(context.Background(), v.target, collectSink(&want, -1))
			if err != nil {
				t.Fatal(err)
			}
			if len(want) < v.target {
				t.Fatalf("baseline found only %d/%d solutions", len(want), v.target)
			}
			step := len(want) / 6
			if step < 1 {
				step = 1
			}
			for cut := 0; cut <= len(want); cut += step {
				sess, err := base.NewSession(v.cfg)
				if err != nil {
					t.Fatal(err)
				}
				var first []string
				if cut > 0 {
					if _, err := sess.Stream(context.Background(), v.target, collectSink(&first, cut)); err != nil {
						t.Fatalf("cut %d: interrupted stream: %v", cut, err)
					}
				}
				if got := sess.Delivered(); got != len(first) {
					t.Fatalf("cut %d: Delivered() = %d, sink saw %d", cut, got, len(first))
				}
				env, err := sess.Checkpoint()
				if err != nil {
					t.Fatalf("cut %d: checkpoint: %v", cut, err)
				}
				ck, err := DecodeCheckpoint(env)
				if err != nil {
					t.Fatalf("cut %d: decode: %v", cut, err)
				}
				if ck.Delivered() != len(first) {
					t.Fatalf("cut %d: envelope cursor %d, want %d", cut, ck.Delivered(), len(first))
				}
				if ck.Key() != base.Key() {
					t.Fatalf("cut %d: envelope key %.12s, want %.12s", cut, ck.Key(), base.Key())
				}
				// Cold resume: a fresh compiler holds nothing, so Resume
				// must recompile from the embedded DIMACS text.
				restored, err := NewCompiler(4).Resume(ck, v.resume)
				if err != nil {
					t.Fatalf("cut %d: resume: %v", cut, err)
				}
				if restored.Delivered() != len(first) {
					t.Fatalf("cut %d: restored cursor %d, want %d", cut, restored.Delivered(), len(first))
				}
				rest := append([]string(nil), first...)
				st, err := restored.Stream(context.Background(), v.target, collectSink(&rest, -1))
				if err != nil {
					t.Fatalf("cut %d: resumed stream: %v", cut, err)
				}
				if len(rest) != len(want) {
					t.Fatalf("cut %d: combined stream has %d solutions, baseline %d", cut, len(rest), len(want))
				}
				for i := range want {
					if rest[i] != want[i] {
						t.Fatalf("cut %d: stream diverges at solution %d", cut, i)
					}
				}
				if st.Unique != wantStats.Unique || st.Exhausted != wantStats.Exhausted {
					t.Fatalf("cut %d: resumed stats {unique %d exhausted %v}, baseline {%d %v}",
						cut, st.Unique, st.Exhausted, wantStats.Unique, wantStats.Exhausted)
				}
			}
		})
	}
}

// countCancelCtx cancels itself after its Err method has been consulted n
// times — Stream checks ctx once per tick, so this interrupts a stream at
// an exact tick boundary with no goroutines or clocks involved.
type countCancelCtx struct {
	context.Context
	left int
}

func (c *countCancelCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestCheckpointExhaustionResume pins the saturation bookkeeping across a
// checkpoint: interrupting a session deep in its zero-gain tail and
// resuming must exhaust after exactly as many total ticks as the
// uninterrupted run — i.e. the scheduler's saturation guard rides the
// snapshot instead of restarting, which would stretch the tail.
func TestCheckpointExhaustionResume(t *testing.T) {
	f := mustParseCk(t, "p cnf 2 1\n1 2 0\n")
	cfg := SessionConfig{Seed: 2, BatchSize: 64, Device: tensor.Sequential()}
	base, err := CompileProblem(f)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := base.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refStats, err := ref.Stream(context.Background(), 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !refStats.Exhausted {
		t.Fatalf("baseline did not exhaust: %+v", refStats)
	}
	for _, cutCalls := range []int{1, refStats.Calls / 2, refStats.Calls - 1} {
		sess, err := base.NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sess.Stream(&countCancelCtx{Context: context.Background(), left: cutCalls}, 100, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Timeout || st.Calls != cutCalls {
			t.Fatalf("cut %d: interrupted run made %d calls (timeout %v)", cutCalls, st.Calls, st.Timeout)
		}
		env, err := sess.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		ck, err := DecodeCheckpoint(env)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := base.RestoreSession(ck, tensor.Device{})
		if err != nil {
			t.Fatal(err)
		}
		rst, err := restored.Stream(context.Background(), 100, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rst.Exhausted {
			t.Fatalf("cut %d: resumed run did not exhaust: %+v", cutCalls, rst)
		}
		if total := cutCalls + rst.Calls; total != refStats.Calls {
			t.Fatalf("cut %d: interrupted+resumed = %d ticks, uninterrupted = %d (saturation guard lost?)",
				cutCalls, total, refStats.Calls)
		}
		if rst.Unique != refStats.Unique {
			t.Fatalf("cut %d: resumed unique %d, baseline %d", cutCalls, rst.Unique, refStats.Unique)
		}
	}
	// A checkpoint taken AT exhaustion resumes straight to done: no extra
	// ticks, the flag re-reported.
	env, err := ref.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := DecodeCheckpoint(env)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewCompiler(1).Resume(ck, tensor.Device{})
	if err != nil {
		t.Fatal(err)
	}
	rst, err := restored.Stream(context.Background(), 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rst.Exhausted || rst.Calls != 0 {
		t.Fatalf("resume at exhaustion ran %d extra ticks (exhausted %v)", rst.Calls, rst.Exhausted)
	}
}

// reseal recomputes the trailing digest after a deliberate body edit, so
// the test reaches the semantic validators behind the integrity check.
func reseal(env []byte) []byte {
	body := env[:len(env)-sha256.Size]
	sum := sha256.Sum256(body)
	return append(append([]byte(nil), body...), sum[:]...)
}

func mustParseCk(t *testing.T, s string) *cnf.Formula {
	t.Helper()
	f, err := cnf.ParseDIMACSString(s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func checkpointFixture(t *testing.T) ([]byte, *Problem) {
	t.Helper()
	p, err := CompileProblem(mustParseCk(t, ckptProjDIMACS))
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewSession(SessionConfig{Seed: 1, BatchSize: 64, Device: tensor.Sequential()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stream(context.Background(), 5, nil); err != nil {
		t.Fatal(err)
	}
	env, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return env, p
}

func TestDecodeCheckpointRejectsCorruption(t *testing.T) {
	env, prob := checkpointFixture(t)
	if _, err := DecodeCheckpoint(env); err != nil {
		t.Fatalf("pristine envelope rejected: %v", err)
	}
	// Every single-byte flip breaks the digest (or, for flips inside the
	// digest itself, the comparison) — nothing corrupt decodes.
	for i := range env {
		bad := append([]byte(nil), env...)
		bad[i] ^= 0x40
		if _, err := DecodeCheckpoint(bad); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("flip at byte %d: err = %v, want ErrBadCheckpoint", i, err)
		}
	}
	for n := 0; n < len(env); n += 11 {
		if _, err := DecodeCheckpoint(env[:n]); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("truncation to %d bytes: err = %v", n, err)
		}
	}
	if _, err := DecodeCheckpoint(nil); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatal("nil input must be rejected")
	}

	// A resealed envelope passes the digest but must still fail the
	// semantic cross-checks: an implausible delivered cursor...
	forged := append([]byte(nil), env...)
	off := 4 + 2 // magic + version
	nameLen := binary.LittleEndian.Uint32(forged[off:])
	off += 4 + int(nameLen)
	binary.LittleEndian.PutUint64(forged[off:], 1<<40)
	if _, err := DecodeCheckpoint(reseal(forged)); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("forged delivered cursor: err = %v", err)
	}
	// ...and an embedded formula that hashes to a different key than the
	// snapshot's.
	otherText := "p cnf 2 1\n1 2 0\n"
	swapped := append([]byte(nil), env[:off+12]...)
	swapped = binary.LittleEndian.AppendUint32(swapped, uint32(len(otherText)))
	swapped = append(swapped, otherText...)
	fLen := binary.LittleEndian.Uint32(env[off+12:])
	swapped = append(swapped, env[off+12+4+int(fLen):len(env)-sha256.Size]...)
	if _, err := DecodeCheckpoint(reseal(swapped)); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("swapped formula: err = %v", err)
	}

	// Restoring onto the wrong compiled problem is refused.
	ck, err := DecodeCheckpoint(env)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := CompileProblem(mustParseCk(t, "p cnf 2 1\n1 2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrong.RestoreSession(ck, tensor.Device{}); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("wrong problem: err = %v", err)
	}
	if _, err := prob.RestoreSession(nil, tensor.Device{}); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("nil checkpoint: err = %v", err)
	}
}

// TestRestoreZeroDeviceUsesSnapshotWorkers: a zero Device restores on the
// worker count the snapshot was taken with, as RestoreSession documents.
func TestRestoreZeroDeviceUsesSnapshotWorkers(t *testing.T) {
	p, err := CompileProblem(mustParseCk(t, ckptProjDIMACS))
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewSession(SessionConfig{Seed: 1, BatchSize: 64, Device: tensor.ParallelN(3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stream(context.Background(), 5, nil); err != nil {
		t.Fatal(err)
	}
	env, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := DecodeCheckpoint(env)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := p.RestoreSession(ck, tensor.Device{})
	if err != nil {
		t.Fatal(err)
	}
	if w := restored.Core().Snapshot().Workers(); w != 3 {
		t.Fatalf("restored on %d workers, want the snapshot's 3", w)
	}
}

// TestCheckpointWarmCachePath: Resume through a compiler that already
// holds the artifact must hit the cache, not recompile.
func TestCheckpointWarmCachePath(t *testing.T) {
	env, _ := checkpointFixture(t)
	ck, err := DecodeCheckpoint(env)
	if err != nil {
		t.Fatal(err)
	}
	comp := NewCompiler(4)
	if _, err := comp.Compile(ck.Formula()); err != nil {
		t.Fatal(err)
	}
	before := comp.Stats()
	if _, err := comp.Resume(ck, tensor.Device{}); err != nil {
		t.Fatal(err)
	}
	after := comp.Stats()
	if after.Misses != before.Misses {
		t.Fatalf("warm resume recompiled: misses %d -> %d", before.Misses, after.Misses)
	}
	if after.Hits != before.Hits+1 {
		t.Fatalf("warm resume did not hit the cache: hits %d -> %d", before.Hits, after.Hits)
	}
}

func FuzzDecodeCheckpoint(f *testing.F) {
	buildSeed := func(cfg SessionConfig, dimacs string, target int) []byte {
		p, err := CompileProblem(mustParseCkF(f, dimacs))
		if err != nil {
			f.Fatal(err)
		}
		s, err := p.NewSession(cfg)
		if err != nil {
			f.Fatal(err)
		}
		if target > 0 {
			if _, err := s.Stream(context.Background(), target, nil); err != nil {
				f.Fatal(err)
			}
		}
		env, err := s.Checkpoint()
		if err != nil {
			f.Fatal(err)
		}
		return env
	}
	plain := buildSeed(SessionConfig{Seed: 1, BatchSize: 64, Device: tensor.Sequential()},
		"p cnf 3 2\n1 2 0\n-1 3 0\n", 4)
	proj := buildSeed(SessionConfig{Seed: 2, BatchSize: 64, Device: tensor.Sequential()},
		ckptProjDIMACS, 4)
	// A round-mode envelope written before sessions lost round mode: it
	// must now be rejected cleanly.
	round, err := os.ReadFile("testdata/gdsc_round.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	fresh := buildSeed(SessionConfig{Seed: 4, BatchSize: 64, Device: tensor.Sequential()},
		"p cnf 2 1\n1 2 0\n", 0)
	// v2 envelope: a specialized session's checkpoint carries its
	// assumption block.
	assumed := func() []byte {
		p, err := NewCompiler(4).CompileAssume(
			mustParseCkF(f, "p cnf 3 2\n1 2 0\n-1 3 0\n"), []cnf.Lit{2})
		if err != nil {
			f.Fatal(err)
		}
		s, err := p.NewSession(SessionConfig{Seed: 6, BatchSize: 64, Device: tensor.Sequential()})
		if err != nil {
			f.Fatal(err)
		}
		if _, err := s.Stream(context.Background(), 2, nil); err != nil {
			f.Fatal(err)
		}
		env, err := s.Checkpoint()
		if err != nil {
			f.Fatal(err)
		}
		return env
	}()
	f.Add(plain)
	f.Add(assumed)
	f.Add(assumed[:len(assumed)-3])
	f.Add(proj)
	f.Add(round)
	f.Add(fresh)
	f.Add(plain[:len(plain)/2])
	flipped := append([]byte(nil), round...)
	flipped[5] ^= 1
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("GDSC"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("error does not wrap ErrBadCheckpoint: %v", err)
			}
			return
		}
		// Whatever decodes must be internally consistent.
		if ck.Delivered() > ck.Snapshot().UniqueCount() {
			t.Fatalf("decoded cursor %d exceeds pool %d", ck.Delivered(), ck.Snapshot().UniqueCount())
		}
		if cnf.AssumeKey(HashFormula(ck.Formula()), ck.Assumptions()) != ck.Key() {
			t.Fatal("decoded formula does not hash to the envelope key")
		}
	})
}

func mustParseCkF(f *testing.F, s string) *cnf.Formula {
	f.Helper()
	fm, err := cnf.ParseDIMACSString(s)
	if err != nil {
		f.Fatal(err)
	}
	return fm
}
