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
	binary.LittleEndian.PutUint64(forged[off:], 1<<40)
	if _, err := DecodeCheckpoint(reseal(forged)); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("forged delivered cursor: err = %v", err)
	}
	// ...and an embedded formula that hashes to a different key than the
	// snapshot's.
	otherText := "p cnf 2 1\n1 2 0\n"
	swapped := append([]byte(nil), env[:off+8]...)
	swapped = binary.LittleEndian.AppendUint32(swapped, uint32(len(otherText)))
	swapped = append(swapped, otherText...)
	fLen := binary.LittleEndian.Uint32(env[off+8:])
	swapped = append(swapped, env[off+8+4+int(fLen):len(env)-sha256.Size]...)
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

// TestResumeRefusesNonModelBacklog: a session stopped mid-flush owes its
// client the pooled rows past the delivered cursor, and a resumed session
// delivers them first. A resealed envelope whose last backlog row was
// edited into a non-model decodes, but Compiler.Resume refuses it: restore
// re-verifies every pooled row.
func TestResumeRefusesNonModelBacklog(t *testing.T) {
	f := mustParseCk(t, "p cnf 10 5\n1 2 0\n3 4 0\n5 6 0\n7 8 0\n9 10 0\n")
	p, err := CompileProblem(f)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewSession(SessionConfig{Seed: 1, BatchSize: 64, Device: tensor.Sequential()})
	if err != nil {
		t.Fatal(err)
	}
	var first []string
	if _, err := s.Stream(context.Background(), 0, collectSink(&first, 3)); err != nil {
		t.Fatal(err)
	}
	c := s.Core()
	n, nsols := c.NumInputs(), c.UniqueCount()
	if nsols <= s.Delivered() {
		t.Fatalf("no backlog: %d pooled, %d delivered", nsols, s.Delivered())
	}
	env, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot's pool section ends it: u32 count, the packed rows, the
	// u32-counted hit tallies and the CRC-32.
	rowBytes := (n + 7) / 8
	last := func(blob []byte) int { return len(blob) - 4 - (4 + 4*nsols) - rowBytes }
	row := make([]bool, n)
	blob := embeddedSnapshot(t, env)
	for i := range row {
		row[i] = blob[last(blob)+i/8]>>(i%8)&1 == 1
	}
	bit := -1
	for i := range row {
		row[i] = !row[i]
		if !f.Sat(c.FullAssignment(row)) {
			bit = i
			break
		}
		row[i] = !row[i]
	}
	if bit < 0 {
		t.Fatal("no single-bit flip of the last pooled row makes a non-model")
	}
	forged := resealSnapshot(t, env, func(blob []byte) { blob[last(blob)+bit/8] ^= 1 << (bit % 8) })
	ck, err := DecodeCheckpoint(forged)
	if err != nil {
		t.Fatalf("edited envelope does not decode: %v", err)
	}
	if _, err := NewCompiler(1).Resume(ck, tensor.Device{}); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("resume with a non-model backlog row: err = %v, want ErrBadCheckpoint", err)
	}
}

// TestRestoreZeroDeviceRunsOneWorker: a resume token's worker count is
// decoded input and never sizes the device. A checkpoint whose snapshot
// claims 1<<24 workers restores with a zero Device — through
// RestoreSession and through Compiler.Resume — on one worker.
func TestRestoreZeroDeviceRunsOneWorker(t *testing.T) {
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
	env = resealSnapshot(t, env, func(blob []byte) {
		binary.LittleEndian.PutUint32(blob[snapshotWorkers(blob):], 1<<24)
	})
	ck, err := DecodeCheckpoint(env)
	if err != nil {
		t.Fatal(err)
	}
	if w := ck.Snapshot().Workers(); w != 1<<24 {
		t.Fatalf("forged snapshot claims %d workers, want 1<<24", w)
	}
	restored, err := p.RestoreSession(ck, tensor.Device{})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewCompiler(1).Resume(ck, tensor.Device{})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Session{"RestoreSession": restored, "Resume": resumed} {
		if w := r.Core().EngineStats().Workers; w != 1 {
			t.Errorf("%s: restored on %d workers, want 1", name, w)
		}
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

// FuzzDecodeCheckpoint fuzzes the GDSC body and seals it with a valid
// SHA-256 digest inside the target, so mutations reach the field parsers,
// the embedded formula's parse and the embedded snapshot's decode past the
// trailer (FuzzOpen covers the trailer, magic and version checks). Every
// input must either fail with an error wrapping ErrBadCheckpoint or decode
// into a consistent checkpoint, which then resumes on a sequential device
// (a refusal wraps ErrBadCheckpoint) to a session whose every solution —
// the undelivered backlog included — is a model of the CNF under the
// envelope's pins, before and after a tick. The round-mode envelope is a
// seed that must be refused.
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
	// Small batches keep the bodies short, so more mutations land on the
	// envelope fields than on the embedded snapshot's V.
	plain := buildSeed(SessionConfig{Seed: 1, BatchSize: 16, Device: tensor.Sequential()},
		"p cnf 3 2\n1 2 0\n-1 3 0\n", 4)
	proj := buildSeed(SessionConfig{Seed: 2, BatchSize: 16, Device: tensor.Sequential()},
		ckptProjDIMACS, 4)
	// A round-mode envelope written before sessions lost round mode: it
	// must now be rejected cleanly.
	round, err := os.ReadFile("testdata/gdsc_round.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	fresh := buildSeed(SessionConfig{Seed: 4, BatchSize: 16, Device: tensor.Sequential()},
		"p cnf 2 1\n1 2 0\n", 0)
	// A specialized session's checkpoint carries a non-empty assumption
	// block.
	assumed := func() []byte {
		p, err := NewCompiler(4).CompileAssume(
			mustParseCkF(f, "p cnf 3 2\n1 2 0\n-1 3 0\n"), []cnf.Lit{2})
		if err != nil {
			f.Fatal(err)
		}
		s, err := p.NewSession(SessionConfig{Seed: 6, BatchSize: 16, Device: tensor.Sequential()})
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
	body := func(env []byte) []byte { return env[:len(env)-sha256.Size] }
	f.Add(body(plain))
	f.Add(body(assumed))
	f.Add(body(assumed)[:len(body(assumed))-3])
	f.Add(body(proj))
	f.Add(body(round))
	f.Add(body(fresh))
	f.Add(body(plain)[:len(body(plain))/2])
	flipped := append([]byte(nil), body(round)...)
	flipped[5] ^= 1
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("GDSC"))
	comp := NewCompiler(4)
	f.Fuzz(func(t *testing.T, body []byte) {
		sum := sha256.Sum256(body)
		ck, err := DecodeCheckpoint(append(append([]byte(nil), body...), sum[:]...))
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
		s, err := comp.Resume(ck, tensor.Sequential())
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("resume error does not wrap ErrBadCheckpoint: %v", err)
			}
			return
		}
		checkModels(t, s, ck, "resumed session")
		s.Core().ContinuousStep(0)
		checkModels(t, s, ck, "after one tick")
	})
}

// checkModels fails t unless every solution s holds satisfies the
// checkpoint's CNF and pins.
func checkModels(t *testing.T, s *Session, ck *Checkpoint, when string) {
	t.Helper()
	for i, sol := range s.Solutions() {
		if !ck.Formula().Sat(sol) {
			t.Fatalf("%s: solution %d is not a model", when, i)
		}
		for _, l := range ck.Assumptions() {
			if !l.Sat(sol[l.Var()-1]) {
				t.Fatalf("%s: solution %d breaks pin %d", when, i, l)
			}
		}
	}
}

func mustParseCkF(f *testing.F, s string) *cnf.Formula {
	f.Helper()
	fm, err := cnf.ParseDIMACSString(s)
	if err != nil {
		f.Fatal(err)
	}
	return fm
}
