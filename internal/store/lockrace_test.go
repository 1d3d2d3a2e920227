package store

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// plantStaleLock leaves a lock file behind the way a holder that died
// mid-maintenance an hour ago would: written, never removed, and held by
// no live descriptor.
func plantStaleLock(t *testing.T, s *Store) {
	t.Helper()
	data, _ := json.Marshal(lockInfo{PID: -1, AtUnixMS: time.Now().Add(-time.Hour).UnixMilli()})
	if err := os.WriteFile(s.lockPath(), data, 0o644); err != nil {
		t.Fatalf("planting stale lock: %v", err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(s.lockPath(), old, old); err != nil {
		t.Fatalf("backdating stale lock: %v", err)
	}
}

// TestLockStaleBreakRace: when several processes race for a maintenance
// lock whose file a dead holder left behind, at most one may end up
// holding it. The file-based lock this replaced had no compare-and-delete:
// a slow breaker could move a fresh lock aside and put its stale copy back
// over a third contender's, leaving two holders. Every round below must
// elect at most one winner, and the lock file must exist the whole time
// a winner holds it.
func TestLockStaleBreakRace(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}

	const breakers = 8
	for round := 0; round < 40; round++ {
		plantStaleLock(t, s)

		var (
			mu       sync.Mutex
			releases []func()
		)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < breakers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				release, err := s.acquireLock()
				if err != nil {
					if !errors.Is(err, ErrLocked) {
						t.Errorf("round %d: unexpected acquire error: %v", round, err)
					}
					return
				}
				mu.Lock()
				releases = append(releases, release)
				mu.Unlock()
			}()
		}
		close(start)
		wg.Wait()

		if len(releases) > 1 {
			t.Fatalf("round %d: %d concurrent holders of the maintenance lock", round, len(releases))
		}
		if len(releases) == 1 {
			// While held, the lock must be visible to everyone else.
			if _, err := os.Stat(filepath.Join(dir, "maintenance.lock")); err != nil {
				t.Fatalf("round %d: winner holds the lock but the lock file is gone: %v", round, err)
			}
			if _, err := s.acquireLock(); !errors.Is(err, ErrLocked) {
				t.Fatalf("round %d: second acquire while held: got %v, want ErrLocked", round, err)
			}
			releases[0]()
		}
		// Release removed the lock file; clear it anyway, so the next
		// round starts clean even if no one won.
		_ = os.Remove(filepath.Join(dir, "maintenance.lock"))
	}
}

// TestLockStaleBreakLeavesNoCorpse checks that taking over a dead
// holder's lock file leaves nothing behind once released.
func TestLockStaleBreakLeavesNoCorpse(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plantStaleLock(t, s)
	release, err := s.acquireLock()
	if err != nil {
		t.Fatalf("breaking a stale lock: %v", err)
	}
	release()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		if f.Name() != "maintenance.lock" {
			// objects/ and quarantine/ are dirs; anything else at the
			// root is leftover break debris.
			t.Fatalf("stale break left %q behind", f.Name())
		}
	}
}
