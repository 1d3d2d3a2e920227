package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"solarsched/internal/obs"
)

func testKey(i int) string {
	return fmt.Sprintf("kind-%d:%064x", i%3, i)
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	payload := []byte("hello artifact")
	if _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get before Put: err = %v, want ErrNotFound", err)
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if !s.Has(key) {
		t.Fatal("Has = false after Put")
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, want %q", got, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", st)
	}
}

func TestRejectsMalformedKeys(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"", "nocolon", ":abc", "kind:", "../evil:abc", "kind:../../etc/passwd",
		"Kind:abcdef", "kind:ABCDEF", "ki nd:abc",
	} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted a malformed key", key)
		}
		if _, err := s.Get(key); err == nil {
			t.Errorf("Get(%q) accepted a malformed key", key)
		}
	}
}

// TestCorruptEntryQuarantinedAndRebuilt is the headline robustness
// property: a flipped byte on disk is detected, the entry is quarantined
// (never served), and a rebuild restores identical contents.
func TestCorruptEntryQuarantinedAndRebuilt(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(7)
	payload := []byte("precious bits precious bits")
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte in place, bypassing the store.
	path := s.entryPath("kind-1", strings.Repeat("0", 63)+"7")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Get(key); !errors.Is(err, ErrCorruptArtifact) {
		t.Fatalf("Get of corrupt entry: err = %v, want ErrCorruptArtifact", err)
	}
	if s.Has(key) {
		t.Fatal("corrupt entry still present in objects/ after Get")
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine holds %d files (err %v), want 1", len(q), err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats = %+v, want Quarantined 1", st)
	}

	// Rebuild: identical contents serve again.
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("rebuilt Get = %q, want %q", got, payload)
	}
}

// TestTruncatedEntryQuarantined covers the torn-write shape: fewer bytes
// on disk than the header promises.
func TestTruncatedEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(2)
	if err := s.Put(key, bytes.Repeat([]byte("abc"), 100)); err != nil {
		t.Fatal(err)
	}
	path := s.entryPath("kind-2", strings.Repeat("0", 63)+"2")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key); !errors.Is(err, ErrCorruptArtifact) {
		t.Fatalf("Get of truncated entry: err = %v, want ErrCorruptArtifact", err)
	}
}

// TestKeyMismatchQuarantined: an entry copied under the wrong name (or a
// tampered header) must not be served for the path's key.
func TestKeyMismatchQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(3), []byte("payload three")); err != nil {
		t.Fatal(err)
	}
	src := s.entryPath("kind-0", strings.Repeat("0", 63)+"3")
	dst := s.entryPath("kind-0", strings.Repeat("0", 63)+"6")
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(testKey(6)); !errors.Is(err, ErrCorruptArtifact) {
		t.Fatalf("Get under wrong key: err = %v, want ErrCorruptArtifact", err)
	}
}

func TestOpenSweepsOrphanedTemporaries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(4), []byte("keep me")); err != nil {
		t.Fatal(err)
	}
	// Strand a publication temporary, as a writer killed mid-Put would.
	kindDir := filepath.Join(dir, "objects", "kind-1")
	orphan := filepath.Join(kindDir, ".deadbeef.art.tmp-12345")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("orphaned temporary survived Open's sweep")
	}
	q, _ := os.ReadDir(filepath.Join(dir, "quarantine"))
	if len(q) != 1 {
		t.Fatalf("quarantine holds %d files, want the swept temporary", len(q))
	}
	if got, err := s2.Get(testKey(4)); err != nil || string(got) != "keep me" {
		t.Fatalf("committed entry lost in sweep: %q, %v", got, err)
	}
}

func TestVerifyAdoptsAndQuarantines(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(testKey(i), []byte(fmt.Sprintf("payload %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt two of them directly.
	for _, i := range []int{1, 3} {
		path := s.entryPath(fmt.Sprintf("kind-%d", i%3), fmt.Sprintf("%064x", i))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-1] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	vs, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if vs.Checked != 5 || vs.Adopted != 3 || vs.Quarantined != 2 {
		t.Fatalf("Verify = %+v, want 5 checked / 3 adopted / 2 quarantined", vs)
	}
	// Surviving entries still serve.
	for _, i := range []int{0, 2, 4} {
		if _, err := s.Get(testKey(i)); err != nil {
			t.Errorf("adopted entry %d unreadable: %v", i, err)
		}
	}
}

func TestGCSizeBudgetEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 1000)
	s, err := Open(dir, Options{MaxBytes: 3700})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 5; i++ {
		if err := s.Put(testKey(i), payload); err != nil {
			t.Fatal(err)
		}
		// Stamp distinct mtimes so LRU order is deterministic: entry 0
		// oldest.
		kind := fmt.Sprintf("kind-%d", i%3)
		path := s.entryPath(kind, fmt.Sprintf("%064x", i))
		if err := os.Chtimes(path, base.Add(time.Duration(i)*time.Minute), base.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	gs, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if gs.Scanned != 5 || gs.Evicted != 2 {
		t.Fatalf("GC = %+v, want 5 scanned / 2 evicted", gs)
	}
	if gs.RemainingBytes > 3700 {
		t.Fatalf("GC left %d bytes, budget 3700", gs.RemainingBytes)
	}
	// The two oldest went; the three newest stayed.
	for i := 0; i < 2; i++ {
		if s.Has(testKey(i)) {
			t.Errorf("entry %d (oldest) survived size GC", i)
		}
	}
	for i := 2; i < 5; i++ {
		if !s.Has(testKey(i)) {
			t.Errorf("entry %d (recent) evicted by size GC", i)
		}
	}
}

func TestGCAgeBudget(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxAge: 30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Put(testKey(i), []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-time.Hour)
	stale := s.entryPath("kind-0", fmt.Sprintf("%064x", 0))
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	gs, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if gs.Evicted != 1 || s.Has(testKey(0)) || !s.Has(testKey(1)) {
		t.Fatalf("age GC = %+v; entry0 present=%v entry1 present=%v", gs, s.Has(testKey(0)), s.Has(testKey(1)))
	}
}

func TestMaintenanceLockStaleBreaking(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A live lock blocks maintenance: another handle on the same store
	// directory holds it, as a second process would.
	other, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	release, err := other.acquireLock()
	if err != nil {
		t.Fatal(err)
	}
	lock := filepath.Join(dir, "maintenance.lock")
	data, err := os.ReadFile(lock)
	if err != nil {
		t.Fatal(err)
	}
	var info lockInfo
	if err := json.Unmarshal(data, &info); err != nil || info.PID != os.Getpid() {
		t.Fatalf("lock file holds %q (%v), want this process's lockInfo", data, err)
	}
	if _, err := s.Verify(); !errors.Is(err, ErrLocked) {
		t.Fatalf("Verify under live lock: err = %v, want ErrLocked", err)
	}
	release()
	// A lock file its holder left behind when it died holds no lock:
	// maintenance runs, and the file is gone afterwards.
	if err := os.WriteFile(lock, []byte(`{"pid":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Verify(); err != nil {
		t.Fatalf("Verify blocked by a dead holder's lock file: %v", err)
	}
	if _, err := os.Stat(lock); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("lock file survived maintenance")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 8
	done := make(chan error, 4*keys)
	for w := 0; w < 4; w++ {
		for i := 0; i < keys; i++ {
			go func(i int) {
				payload := []byte(fmt.Sprintf("payload-%d", i))
				if err := s.Put(testKey(i), payload); err != nil {
					done <- err
					return
				}
				got, err := s.Get(testKey(i))
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(got, payload) {
					done <- fmt.Errorf("key %d: got %q", i, got)
					return
				}
				done <- nil
			}(i)
		}
	}
	for n := 0; n < 4*keys; n++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	entries, _, err := s.Len()
	if err != nil || entries != keys {
		t.Fatalf("Len = %d (%v), want %d", entries, err, keys)
	}
}

func TestFaultFSDeterministic(t *testing.T) {
	run := func() (counts [5]int) {
		dir := t.TempDir()
		fsys := NewFaultFS(OS, Uniform(42, 0.2))
		s, err := Open(dir, Options{FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			_ = s.Put(testKey(i), []byte("deterministic payload"))
			_, _ = s.Get(testKey(i))
		}
		r, c, w, rn, sy := fsys.Injected()
		return [5]int{r, c, w, rn, sy}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	var total int
	for _, n := range a {
		total += n
	}
	if total == 0 {
		t.Fatal("20%% fault rate injected nothing over 100 operations")
	}
}
