package store

import (
	"io/fs"
	"os"
	"time"

	"solarsched/internal/atomicio"
)

// FS is the filesystem surface the store runs on: the write side of the
// atomic publication protocol (atomicio.FS) plus the read and maintenance
// operations the store's verification, quarantine, GC and locking need.
// Injecting it makes the whole stack chaos-testable — see FaultFS for the
// deterministic fault shim.
type FS interface {
	atomicio.FS

	// ReadFile returns the full contents of name.
	ReadFile(name string) ([]byte, error)
	// MkdirAll creates dir and its parents.
	MkdirAll(dir string, perm os.FileMode) error
	// ReadDir lists dir in name order.
	ReadDir(name string) ([]fs.DirEntry, error)
	// Stat describes a file.
	Stat(name string) (fs.FileInfo, error)
	// Chtimes updates a file's access and modification times (the store's
	// LRU clock for GC).
	Chtimes(name string, atime, mtime time.Time) error
	// TryLock takes an exclusive lock on the file name without waiting,
	// creating the file if needed, and writes data into it for
	// diagnostics. While held, the file exists under name; release
	// removes it and drops the lock. A lock whose holder died is free
	// again, whatever file it left behind. An error wrapping ErrLocked
	// means another holder has it.
	TryLock(name string, data []byte, perm os.FileMode) (release func(), err error)
}

// osFS is the real filesystem.
type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (atomicio.File, error) {
	return atomicio.OS.CreateTemp(dir, pattern)
}
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) SyncDir(dir string) error             { return atomicio.SyncDir(dir) }

func (osFS) ReadFile(name string) ([]byte, error)        { return os.ReadFile(name) }
func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)  { return os.ReadDir(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)       { return os.Stat(name) }
func (osFS) Chtimes(name string, a, m time.Time) error   { return os.Chtimes(name, a, m) }

// OS is the real filesystem as a store FS.
var OS FS = osFS{}
