package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"time"

	"solarsched/internal/atomicio"
	"solarsched/internal/rng"
)

// ErrInjected marks every failure the fault shim fabricates, so tests can
// tell injected faults from real ones with errors.Is.
var ErrInjected = errors.New("store: injected I/O fault")

// FaultConfig tunes the deterministic failing filesystem. Each field is
// a per-operation probability in [0, 1]; the shim draws from one seeded
// stream per fault class (the internal/fault discipline: tuning one class
// never perturbs another), so a (seed, operation sequence) pair replays
// bit-identically.
type FaultConfig struct {
	Seed uint64
	// ReadErr fails ReadFile with ErrInjected — a transient EIO.
	ReadErr float64
	// CorruptRead returns the file's contents with one byte flipped —
	// the silent-corruption case the envelope digest exists to catch.
	CorruptRead float64
	// WriteErr makes a File.Write short: half the buffer lands, then
	// ErrInjected — the torn-write case.
	WriteErr float64
	// RenameErr fails Rename (the publication step) with ErrInjected.
	RenameErr float64
	// SyncErr fails File.Sync with ErrInjected — a dropped fsync.
	SyncErr float64
}

// Uniform returns a config injecting every fault class at rate p.
func Uniform(seed uint64, p float64) FaultConfig {
	return FaultConfig{Seed: seed, ReadErr: p, CorruptRead: p, WriteErr: p, RenameErr: p, SyncErr: p}
}

// FaultFS wraps an FS with seeded fault injection. Structure operations
// (MkdirAll, ReadDir, Stat, Chtimes) pass through untouched — the shim
// models media and syscall faults on the data path, not a vanished
// directory tree. Safe for concurrent use; concurrency does make the
// draw order scheduling-dependent, so replay determinism holds for
// single-goroutine access (what the store's maintenance paths do).
type FaultFS struct {
	inner FS
	cfg   FaultConfig

	mu                             sync.Mutex
	read, corrupt, write, ren, syn *rng.Source

	injected struct {
		reads, corrupts, writes, renames, syncs int
	}
}

// NewFaultFS builds the shim over inner (nil means the real filesystem).
func NewFaultFS(inner FS, cfg FaultConfig) *FaultFS {
	if inner == nil {
		inner = OS
	}
	base := rng.New(cfg.Seed)
	return &FaultFS{
		inner:   inner,
		cfg:     cfg,
		read:    base.SplitLabeled("store/read"),
		corrupt: base.SplitLabeled("store/corrupt"),
		write:   base.SplitLabeled("store/write"),
		ren:     base.SplitLabeled("store/rename"),
		syn:     base.SplitLabeled("store/sync"),
	}
}

// draw consumes one value from stream and reports whether a fault with
// probability p fires, bumping counter when it does.
func (f *FaultFS) draw(stream *rng.Source, p float64, counter *int) bool {
	if p <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if stream.Float64() < p {
		*counter++
		return true
	}
	return false
}

// Injected returns how many faults each class has fired so far.
func (f *FaultFS) Injected() (reads, corrupts, writes, renames, syncs int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.injected
	return i.reads, i.corrupts, i.writes, i.renames, i.syncs
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if f.draw(f.read, f.cfg.ReadErr, &f.injected.reads) {
		return nil, fmt.Errorf("%w: read %s", ErrInjected, name)
	}
	data, err := f.inner.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if len(data) > 0 && f.draw(f.corrupt, f.cfg.CorruptRead, &f.injected.corrupts) {
		mangled := make([]byte, len(data))
		copy(mangled, data)
		mangled[len(mangled)/2] ^= 0x40
		return mangled, nil
	}
	return data, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if f.draw(f.ren, f.cfg.RenameErr, &f.injected.renames) {
		return fmt.Errorf("%w: rename %s", ErrInjected, newpath)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) CreateTemp(dir, pattern string) (atomicio.File, error) {
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) TryLock(name string, data []byte, perm os.FileMode) (func(), error) {
	if f.draw(f.write, f.cfg.WriteErr, &f.injected.writes) {
		return nil, fmt.Errorf("%w: write %s", ErrInjected, name)
	}
	return f.inner.TryLock(name, data, perm)
}

func (f *FaultFS) Remove(name string) error                    { return f.inner.Remove(name) }
func (f *FaultFS) SyncDir(dir string) error                    { return f.inner.SyncDir(dir) }
func (f *FaultFS) MkdirAll(dir string, perm os.FileMode) error { return f.inner.MkdirAll(dir, perm) }
func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error)  { return f.inner.ReadDir(name) }
func (f *FaultFS) Stat(name string) (fs.FileInfo, error)       { return f.inner.Stat(name) }
func (f *FaultFS) Chtimes(name string, a, m time.Time) error   { return f.inner.Chtimes(name, a, m) }

// faultFile injects write and sync faults on an open temporary.
type faultFile struct {
	atomicio.File
	fs *FaultFS
}

func (w *faultFile) Write(p []byte) (int, error) {
	if w.fs.draw(w.fs.write, w.fs.cfg.WriteErr, &w.fs.injected.writes) {
		// Short write: half the buffer lands before the fault — the shape
		// a torn write leaves on media.
		n, _ := w.File.Write(p[:len(p)/2])
		return n, fmt.Errorf("%w: short write of %s", ErrInjected, w.File.Name())
	}
	return w.File.Write(p)
}

func (w *faultFile) Sync() error {
	if w.fs.draw(w.fs.syn, w.fs.cfg.SyncErr, &w.fs.injected.syncs) {
		return fmt.Errorf("%w: fsync %s", ErrInjected, w.File.Name())
	}
	return w.File.Sync()
}
