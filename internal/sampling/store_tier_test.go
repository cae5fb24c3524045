package sampling

import (
	"context"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/cnf"
	"repro/internal/store"
	"repro/internal/tensor"
)

func testStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, 0, slog.New(slog.NewTextHandler(os.Stderr, nil)))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCompilerDiskTierDifferential: a compile through one compiler leaves
// a durable artifact; a second compiler over the same directory serves it
// as a disk hit without recompiling, and the store-loaded Problem streams
// bit-identical solutions to the freshly compiled one — same seed, 1 and
// 7 workers, plain and projected. This is the invariant that lets a fleet
// treat compiled artifacts as shared immutable state.
func TestCompilerDiskTierDifferential(t *testing.T) {
	formulas := map[string]*cnf.Formula{
		"plain":     benchgen.SmallSuite()[0].Formula,
		"projected": mustParseCk(t, ckptProjDIMACS),
	}
	for name, f := range formulas {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			warm := NewCompiler(4).WithStore(testStore(t, dir))
			fresh, err := warm.Compile(f)
			if err != nil {
				t.Fatal(err)
			}
			ws := warm.Stats()
			if ws.DiskMisses != 1 || ws.DiskHits != 0 {
				t.Fatalf("first compile stats = %+v, want exactly one disk miss", ws)
			}

			cold := NewCompiler(4).WithStore(testStore(t, dir))
			loaded, err := cold.Compile(f)
			if err != nil {
				t.Fatalf("cold replica compile: %v", err)
			}
			cs := cold.Stats()
			if cs.DiskHits != 1 || cs.DiskMisses != 0 || cs.Misses != 1 {
				t.Fatalf("cold replica stats = %+v, want one disk hit behind one memory miss", cs)
			}
			if cs.DiskBytes <= 0 {
				t.Fatalf("disk hit loaded %d bytes", cs.DiskBytes)
			}
			if loaded.Key() != fresh.Key() {
				t.Fatal("store round trip changed the problem key")
			}

			for _, workers := range []int{1, 7} {
				dev := tensor.Sequential()
				if workers > 1 {
					dev = tensor.ParallelN(workers)
				}
				cfg := SessionConfig{Seed: 23, BatchSize: 128, Device: dev}
				run := func(p *Problem) []string {
					sess, err := p.NewSession(cfg)
					if err != nil {
						t.Fatal(err)
					}
					var out []string
					if _, err := sess.Stream(context.Background(), 30, collectSink(&out, -1)); err != nil {
						t.Fatal(err)
					}
					return out
				}
				want, got := run(fresh), run(loaded)
				if len(want) == 0 {
					t.Fatal("baseline found no solutions; differential exercises nothing")
				}
				if len(got) != len(want) {
					t.Fatalf("%d workers: loaded stream has %d solutions, fresh %d", workers, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%d workers: streams diverge at solution %d:\n  loaded %s\n  fresh  %s", workers, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestCompilerLookupFallsThroughToDisk is the ISSUE's fix: the key-only
// path (?key= requests, resume legs) must reach the durable tier, so a
// cold replica serves a key-hit without the client re-uploading the
// DIMACS body.
func TestCompilerLookupFallsThroughToDisk(t *testing.T) {
	dir := t.TempDir()
	f := benchgen.SmallSuite()[1].Formula
	warm := NewCompiler(4).WithStore(testStore(t, dir))
	p, err := warm.Compile(f)
	if err != nil {
		t.Fatal(err)
	}

	cold := NewCompiler(4).WithStore(testStore(t, dir))
	got, ok := cold.Lookup(p.Key())
	if !ok {
		t.Fatal("cold Lookup missed a key the shared store holds")
	}
	if got.Key() != p.Key() {
		t.Fatal("disk Lookup returned the wrong problem")
	}
	st := cold.Stats()
	if st.DiskHits != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("after disk Lookup, stats = %+v, want 1 disk hit installed in memory", st)
	}
	// Second Lookup must be a pure memory hit — the loaded artifact was
	// installed, not re-read from disk.
	if _, ok := cold.Lookup(p.Key()); !ok {
		t.Fatal("second Lookup missed")
	}
	st = cold.Stats()
	if st.Hits != 1 || st.DiskHits != 1 {
		t.Fatalf("after second Lookup, stats = %+v, want a memory hit on top", st)
	}
	// Unknown keys miss both tiers.
	if _, ok := cold.Lookup(HashFormula(benchgen.SmallSuite()[2].Formula)); ok {
		t.Fatal("Lookup invented a problem for an unknown key")
	}
	if st = cold.Stats(); st.DiskMisses != 1 {
		t.Fatalf("unknown key stats = %+v, want 1 disk miss", st)
	}
	// Memory-only compilers keep the old contract: unknown key, no disk.
	if _, ok := NewCompiler(4).Lookup(p.Key()); ok {
		t.Fatal("store-less compiler served a key it never compiled")
	}
}

// TestCompilerQuarantinesUndecodableArtifact: a stored blob that passes
// no integrity check (torn), or passes the trailer but fails GDSP decode
// (an intact artifact in an earlier codec layout), must read as a clean
// miss, be quarantined, and be healed by the recompile's write-back.
func TestCompilerQuarantinesUndecodableArtifact(t *testing.T) {
	// gdsp_v1.bin is the same formula compiled in the first codec layout.
	oldLayout, err := os.ReadFile("../core/testdata/gdsp_v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	for name, spoil := range map[string]func(blob []byte) []byte{
		"torn": func(blob []byte) []byte {
			mut := append([]byte(nil), blob...)
			mut[10] ^= 0x04
			return mut
		},
		"old-layout": func([]byte) []byte { return oldLayout },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			f := benchgen.SmallSuite()[0].Formula
			warm := NewCompiler(4).WithStore(testStore(t, dir))
			p, err := warm.Compile(f)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, p.Key()+".gdsp")
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, spoil(blob), 0o644); err != nil {
				t.Fatal(err)
			}

			cold := NewCompiler(4).WithStore(testStore(t, dir))
			if _, err := cold.Compile(f); err != nil {
				t.Fatalf("compile with a bad artifact on disk: %v", err)
			}
			st := cold.Stats()
			if st.DiskHits != 0 || st.DiskMisses != 1 {
				t.Fatalf("stats = %+v, want the bad blob to read as a miss", st)
			}
			// The recompile's write-back healed the store: a third compiler hits.
			healed := NewCompiler(4).WithStore(testStore(t, dir))
			if _, err := healed.Compile(f); err != nil {
				t.Fatal(err)
			}
			if hs := healed.Stats(); hs.DiskHits != 1 {
				t.Fatalf("store not healed after recompile: %+v", hs)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("bad artifact not quarantined: %v", err)
			}
		})
	}
}

// TestCompilerDiskStatsConsistentUnderRace hammers Compile and Lookup
// from many goroutines over a shared store and checks the counters stay
// mutually consistent — every disk consultation is exactly one hit or one
// miss, DiskBytes moves only with hits, and the memory invariant
// (hits + misses == calls) still holds. Run under -race in CI.
func TestCompilerDiskStatsConsistentUnderRace(t *testing.T) {
	dir := t.TempDir()
	ins := benchgen.SmallSuite()
	c := NewCompiler(len(ins)).WithStore(testStore(t, dir))
	const workers, loops = 8, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				inst := ins[(w+i)%len(ins)]
				if w%2 == 0 {
					if _, err := c.Compile(inst.Formula); err != nil {
						t.Error(err)
					}
				} else {
					c.Lookup(HashFormula(inst.Formula))
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	compiles := int64(workers / 2 * loops)
	if st.Hits+st.Misses+st.DiskHits < compiles {
		t.Fatalf("counters lost calls: %+v over %d compiles", st, compiles)
	}
	if st.DiskHits > 0 && st.DiskBytes <= 0 {
		t.Fatalf("disk hits with no bytes: %+v", st)
	}
	if st.DiskHits == 0 && st.DiskBytes != 0 {
		t.Fatalf("disk bytes with no hits: %+v", st)
	}
	// Each distinct formula consults the disk at most a handful of times
	// (single-flight covers Compile; Lookup may race past it), and every
	// consultation is tallied exactly once.
	if st.DiskHits+st.DiskMisses == 0 {
		t.Fatalf("store never consulted: %+v", st)
	}
}
