package store

import (
	"crypto/sha256"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sealed wraps body with the SHA-256 trailer every store blob carries.
func sealed(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(append([]byte(nil), body...), sum[:]...)
}

// keyFor makes a deterministic valid key from a seed string.
func keyFor(seed string) string {
	sum := sha256.Sum256([]byte(seed))
	const hexdigits = "0123456789abcdef"
	out := make([]byte, 64)
	for i, b := range sum {
		out[2*i] = hexdigits[b>>4]
		out[2*i+1] = hexdigits[b&0xF]
	}
	return string(out)
}

func openTest(t *testing.T, budget int64) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), budget, slog.New(slog.NewTextHandler(os.Stderr, nil)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStorePutGetRoundTrip(t *testing.T) {
	s := openTest(t, 0)
	key := keyFor("a")
	blob := sealed([]byte("compiled artifact bytes"))
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store served a hit")
	}
	if err := s.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("stored blob missed")
	}
	if string(got) != string(blob) {
		t.Fatal("stored blob came back different")
	}
	st := s.Stats()
	if st.Entries != 1 || st.Bytes != int64(len(blob)) {
		t.Fatalf("stats = %+v, want 1 entry / %d bytes", st, len(blob))
	}
}

func TestStoreRejectsBadKeysAndBlobs(t *testing.T) {
	s := openTest(t, 0)
	blob := sealed([]byte("x"))
	for _, bad := range []string{"", "abc", strings.Repeat("Z", 64), "../" + keyFor("a")[:61]} {
		if err := s.Put(bad, blob); err == nil {
			t.Fatalf("Put accepted invalid key %q", bad)
		}
		if _, ok := s.Get(bad); ok {
			t.Fatalf("Get hit on invalid key %q", bad)
		}
	}
	if err := s.Put(keyFor("a"), []byte("no trailer here")); err == nil {
		t.Fatal("Put accepted a blob without a valid trailer")
	}
}

// TestStoreQuarantinesTornFiles: bytes corrupted after Put (a torn write,
// bit rot) must read as a clean miss, leave a .corrupt file behind for
// forensics, and count — never be served.
func TestStoreQuarantinesTornFiles(t *testing.T) {
	s := openTest(t, 0)
	key := keyFor("torn")
	blob := sealed([]byte("good bytes"))
	if err := s.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	path := s.path(key)
	mut := append([]byte(nil), blob...)
	mut[3] ^= 0x10
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("corrupted blob served as a hit")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("no quarantine file: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupted blob still in place after quarantine")
	}
	st := s.Stats()
	if st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 quarantined / 0 entries", st)
	}
	// A truncated file — the other torn-write shape — also reads as a miss.
	key2 := keyFor("trunc")
	if err := s.Put(key2, blob); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(key2), blob[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key2); ok {
		t.Fatal("truncated blob served as a hit")
	}
}

// TestStoreEvictsOldestFirst: over budget, the least-recently-touched
// blobs go first, and a Get refreshes recency (mtime), exactly like the
// compiler's memory LRU.
func TestStoreEvictsOldestFirst(t *testing.T) {
	blob := sealed(make([]byte, 68)) // 100 bytes each
	s := openTest(t, 250)            // room for two
	keys := []string{keyFor("1"), keyFor("2"), keyFor("3")}
	for i, k := range keys[:2] {
		if err := s.Put(k, blob); err != nil {
			t.Fatal(err)
		}
		// mtime granularity on some filesystems is coarse; spread explicitly.
		old := time.Now().Add(time.Duration(i-10) * time.Hour)
		os.Chtimes(s.path(k), old, old)
	}
	// Touch key[0] so key[1] is now the oldest.
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("miss on resident key")
	}
	if err := s.Put(keys[2], blob); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(keys[1]); ok {
		t.Fatal("oldest entry survived eviction")
	}
	for _, k := range []string{keys[0], keys[2]} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("recently-used entry %s was evicted", k[:12])
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", st)
	}
	if err := s.Put(keyFor("huge"), sealed(make([]byte, 300))); err == nil {
		t.Fatal("Put accepted a blob larger than the whole budget")
	}
}

// TestStoreScanStableOnEqualMtimes: coarse filesystem timestamps make
// mtime ties common under write bursts; the scan must order tied entries
// deterministically (by key) so every replica scanning a shared directory
// evicts the same blob, instead of sort.Slice's unspecified tie order.
func TestStoreScanStableOnEqualMtimes(t *testing.T) {
	s := openTest(t, 0)
	blob := sealed([]byte("tied"))
	keys := []string{keyFor("c"), keyFor("a"), keyFor("b"), keyFor("d")}
	when := time.Now().Add(-time.Hour).Truncate(time.Second)
	for _, k := range keys {
		if err := s.Put(k, blob); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(s.path(k), when, when); err != nil {
			t.Fatal(err)
		}
	}
	want := s.scan()
	if len(want) != len(keys) {
		t.Fatalf("scan found %d entries, want %d", len(want), len(keys))
	}
	for i := 1; i < len(want); i++ {
		if want[i-1].mtime == want[i].mtime && want[i-1].key >= want[i].key {
			t.Fatalf("tied entries out of key order at %d: %s >= %s",
				i, want[i-1].key[:12], want[i].key[:12])
		}
	}
	// Repeated scans must agree exactly — the property sort.Slice on the
	// mtime alone did not provide.
	for rep := 0; rep < 5; rep++ {
		got := s.scan()
		for i := range want {
			if got[i].key != want[i].key {
				t.Fatalf("scan %d reordered tied entries at %d: %s vs %s",
					rep, i, got[i].key[:12], want[i].key[:12])
			}
		}
	}
}

// TestStoreSharedDirectory: two Store handles over one directory — the
// multi-replica arrangement behind satsharded — see each other's writes
// immediately and agree on stats, with no in-memory index to go stale.
func TestStoreSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	a, err := Open(dir, 0, log)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, 0, log)
	if err != nil {
		t.Fatal(err)
	}
	key := keyFor("shared")
	blob := sealed([]byte("written by a, read by b"))
	if err := a.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get(key)
	if !ok || string(got) != string(blob) {
		t.Fatal("peer handle missed a blob the other wrote")
	}
	if st := b.Stats(); st.Entries != 1 {
		t.Fatalf("peer stats = %+v, want 1 entry", st)
	}
	// Reopening over a populated directory indexes nothing and loses nothing.
	c, err := Open(dir, 0, log)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); !ok {
		t.Fatal("reopened store missed an existing blob")
	}
}

// TestStoreReapsStaleTempFiles: an orphaned temp file from a crashed
// writer is removed at Open once old enough; fresh temp files (a live
// peer mid-write) are left alone.
func TestStoreReapsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "deadbeef0000-1.tmp")
	fresh := filepath.Join(dir, "deadbeef0000-2.tmp")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * tmpReapAge)
	os.Chtimes(stale, old, old)
	if _, err := Open(dir, 0, slog.New(slog.NewTextHandler(os.Stderr, nil))); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived Open")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("fresh temp file was reaped")
	}
}

// TestStorePutNeverEvictsItself: a Put over budget evicts other entries,
// never the blob it just wrote — even when a peer's clock running ahead
// (or an mtime tie) ranks that blob oldest.
func TestStorePutNeverEvictsItself(t *testing.T) {
	blob := sealed(make([]byte, 68)) // 100 bytes each
	s := openTest(t, 150)            // room for one
	a, b := keyFor("a"), keyFor("b")
	if err := s.Put(a, blob); err != nil {
		t.Fatal(err)
	}
	ahead := time.Now().Add(time.Hour)
	if err := os.Chtimes(s.path(a), ahead, ahead); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(b, blob); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(b); !ok {
		t.Fatal("Put returned nil but evicted its own entry")
	}
	if _, ok := s.Get(a); ok {
		t.Fatal("the other entry survived an over-budget Put")
	}
}

// TestStoreTakeOneShot: Take hands each entry to exactly one caller, with
// many goroutines taking the same keys through two Store values over one
// directory (two processes sharing it), and leaves no file behind.
func TestStoreTakeOneShot(t *testing.T) {
	dir := t.TempDir()
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
	var stores [2]*Store
	for i := range stores {
		s, err := OpenSuffix(dir, ".ckpt", 1<<20, log)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	const entries, workers = 40, 8
	keys := make([]string, entries)
	blobs := map[string][]byte{}
	for i := range keys {
		keys[i] = keyFor(strconv.Itoa(i))
		blobs[keys[i]] = sealed([]byte(strings.Repeat("x", i+1)))
		if err := stores[i%2].Put(keys[i], blobs[keys[i]]); err != nil {
			t.Fatal(err)
		}
	}
	var taken [entries]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, k := range keys {
				data, ok := stores[(w+i)%2].Take(k)
				if !ok {
					continue
				}
				taken[i].Add(1)
				if string(data) != string(blobs[k]) {
					t.Errorf("Take(%s) returned different bytes", k[:12])
				}
				stores[w%2].Stats()
			}
		}(w)
	}
	wg.Wait()
	for i := range taken {
		if n := taken[i].Load(); n != 1 {
			t.Errorf("entry %d taken %d times, want exactly once", i, n)
		}
	}
	for _, s := range stores {
		if st := s.Stats(); st.Entries != 0 || st.Quarantined != 0 {
			t.Fatalf("stats after taking everything = %+v, want empty and nothing quarantined", st)
		}
	}
	if _, ok := stores[0].Take(keys[0]); ok {
		t.Fatal("a taken entry was taken again")
	}
}

// TestStoreVerifyQuarantines: the boot scan quarantines an entry damaged
// on disk (renamed to .corrupt and counted), keeps the whole ones, and
// ignores files that are not entries of this store.
func TestStoreVerifyQuarantines(t *testing.T) {
	dir := t.TempDir()
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
	s, err := OpenSuffix(dir, ".ckpt", 1<<20, log)
	if err != nil {
		t.Fatal(err)
	}
	good, torn := keyFor("good"), keyFor("torn")
	for _, k := range []string{good, torn} {
		if err := s.Put(k, sealed([]byte(k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(s.path(torn), []byte("torn envelope"), 0o644); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, strings.Repeat("z", 64)+".ckpt"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, keyFor("other")+".gdsp"), []byte("x"), 0o644)

	restarted, err := OpenSuffix(dir, ".ckpt", 1<<20, log)
	if err != nil {
		t.Fatal(err)
	}
	restarted.Verify()
	if st := restarted.Stats(); st.Entries != 1 || st.Quarantined != 1 {
		t.Fatalf("after Verify: %+v, want 1 entry / 1 quarantined", st)
	}
	if _, err := os.Stat(s.path(torn) + ".corrupt"); err != nil {
		t.Fatalf("torn entry was not quarantined: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, keyFor("other")+".gdsp")); err != nil {
		t.Fatalf("another store's file was touched: %v", err)
	}
	if data, ok := restarted.Take(good); !ok || string(data) != string(sealed([]byte(good))) {
		t.Fatal("whole entry did not survive Verify")
	}
	if _, err := os.Stat(s.path(good)); !os.IsNotExist(err) {
		t.Fatalf("taken entry still on disk: %v", err)
	}
	for _, bad := range []string{"", "short", strings.Repeat("A", 64), "../../../../etc/passwd"} {
		if _, ok := restarted.Take(bad); ok {
			t.Fatalf("malformed key %q hit", bad)
		}
	}
}
