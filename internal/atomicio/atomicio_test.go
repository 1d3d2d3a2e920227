package atomicio_test

import (
	"os"
	"path/filepath"
	"testing"

	"solarsched/internal/atomicio"
)

func TestAtomicWriterCommitAndAbort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Abort must leave the existing file untouched.
	w, err := atomicio.NewWriter(path, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("half-written")); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if data, _ := os.ReadFile(path); string(data) != "old" {
		t.Fatalf("abort clobbered target: %q", data)
	}

	// Commit publishes the new content atomically.
	w, err = atomicio.NewWriter(path, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("new content")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	w.Abort() // idempotent after Commit — the deferred-cleanup pattern
	if data, _ := os.ReadFile(path); string(data) != "new content" {
		t.Fatalf("commit did not publish: %q", data)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("write accepted after Commit")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("leftover files in %s: %v", dir, entries)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "f.txt")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := atomicio.WriteFile(path, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != "hello" {
		t.Fatalf("content %q", data)
	}
	if err := atomicio.WriteFile(path, []byte("replaced"), 0o644); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != "replaced" {
		t.Fatalf("content %q", data)
	}
}
