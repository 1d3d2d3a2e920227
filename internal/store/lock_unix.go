//go:build unix

package store

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// TryLock holds the lock as a kernel advisory lock (flock, LOCK_EX|LOCK_NB)
// on an open descriptor of name. The kernel drops it when the descriptor
// closes, including when its holder dies, so a dead holder's file never
// blocks: there is no staleness to judge and nothing to break.
//
// A holder removes the file while still holding the lock, then closes it.
// A contender that opened the old file before the removal can still win
// its flock afterwards, on a file no longer under name, while a third
// process locks a fresh file there. So a won flock counts only when name
// still refers to the locked file; otherwise the contender retries.
func (osFS) TryLock(name string, data []byte, perm os.FileMode) (func(), error) {
	for attempt := 0; ; attempt++ {
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE, perm)
		if err != nil {
			return nil, err
		}
		if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
			f.Close()
			if errors.Is(err, syscall.EWOULDBLOCK) {
				return nil, fmt.Errorf("%w: %s", ErrLocked, name)
			}
			return nil, err
		}
		held, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		if cur, err := os.Stat(name); err != nil || !os.SameFile(held, cur) {
			f.Close()
			if attempt < 3 {
				continue
			}
			return nil, fmt.Errorf("%w: %s (released and retaken while acquiring)", ErrLocked, name)
		}
		// Overwrite whatever a dead holder left, then cut the file to
		// data's length. Cutting to zero before writing would cost a
		// writeback per acquisition: ext4 flushes a file truncated to
		// zero and rewritten when it is closed (auto_da_alloc).
		_, err = f.WriteAt(data, 0)
		if err == nil {
			err = f.Truncate(int64(len(data)))
		}
		if err != nil {
			release(f, name)
			return nil, err
		}
		return func() { release(f, name) }, nil
	}
}

// release unlinks a held lock's file, then closes its descriptor, which
// drops the lock. Neither error changes anything for the holder: a file
// that could not be removed is free once closed, and the lock file holds
// only diagnostics, so nothing in it needs to reach the disk.
func release(f *os.File, name string) {
	_ = os.Remove(name)
	_ = f.Close()
}
