// Package store is the durable, content-addressed artifact store that
// sits under the in-memory fleet cache: every offline artifact (sized
// banks, DP teacher samples, LUT plans, DBN weights) a process builds is
// published to disk in a self-verifying envelope, so the next process —
// a warm-restarted daemon, a second worker on the same machine — adopts
// it instead of rebuilding.
//
// Robustness is the design center, mirroring the NVP backup/restore
// discipline the simulator models (DESIGN.md §12): entries are written
// with the atomicio temp+fsync+rename protocol, carry a SHA-256 of their
// payload, and are verified on every read. An entry that fails
// verification is never served and never fatal: it is atomically moved to
// quarantine/, counted, and the caller rebuilds it. Maintenance
// (orphan-temp sweeps, full verification, GC) runs under a kernel
// advisory lock on a lock file, so multiple processes can share one store
// directory and a crashed holder never leaves the store locked. The whole
// stack runs on an injectable filesystem (FS), with a deterministic fault
// shim (FaultFS) for chaos tests.
//
// Layout under the store directory:
//
//	objects/<kind>/<digest>.art   one artifact per file, enveloped
//	quarantine/                   entries that failed verification
//	maintenance.lock              held during sweeps, Verify and GC
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"solarsched/internal/atomicio"
	"solarsched/internal/obs"
)

// Magic identifies an artifact file; FormatVersion the envelope schema.
const (
	Magic         = "solarsched-art"
	FormatVersion = 1
)

var (
	// ErrNotFound means the key has no entry — the ordinary cache miss.
	ErrNotFound = errors.New("store: artifact not found")
	// ErrCorruptArtifact wraps every verification failure: torn or
	// truncated envelope, digest mismatch, key mismatch. The entry has
	// already been quarantined when this is returned; callers rebuild.
	ErrCorruptArtifact = errors.New("store: corrupt artifact")
	// ErrLocked means another process holds the maintenance lock.
	// Maintenance is skippable; callers typically retry later or proceed
	// without it.
	ErrLocked = errors.New("store: maintenance lock held")
)

// Options tunes a store.
type Options struct {
	// FS is the filesystem; nil means the real one.
	FS FS
	// Registry receives the store's metrics; nil disables.
	Registry *obs.Registry
	// MaxBytes bounds the store's payload budget for GC; 0 disables
	// size-based eviction.
	MaxBytes int64
	// MaxAge evicts entries not read for longer than this during GC;
	// 0 disables age-based eviction.
	MaxAge time.Duration
}

// Store is a disk-backed content-addressed artifact store. All methods
// are safe for concurrent use by multiple goroutines, and Put/Get are
// safe across processes sharing the directory (atomic rename publication;
// verification catches everything else).
type Store struct {
	dir  string
	fsys FS
	opts Options

	mu  sync.Mutex // serializes in-process maintenance
	seq atomic.Uint64

	hits, misses, quarantined, evicted, putErrors atomic.Int64

	mHits        *obs.Counter
	mMisses      *obs.Counter
	mQuarantined *obs.Counter
	mEvicted     *obs.Counter
	mPutErrors   *obs.Counter
	mEntries     *obs.Gauge
	mBytes       *obs.Gauge
}

// Stats is a point-in-time view of the store's counters.
type Stats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Quarantined int64 `json:"quarantined"`
	Evicted     int64 `json:"evicted"`
	PutErrors   int64 `json:"put_errors"`
}

// Open opens (creating if necessary) the store at dir and sweeps
// publication temporaries a previous crash left behind into quarantine.
// The sweep runs under the maintenance lock and is skipped — not an
// error — when another process holds it.
func Open(dir string, opts Options) (*Store, error) {
	if opts.FS == nil {
		opts.FS = OS
	}
	reg := opts.Registry
	s := &Store{
		dir:          dir,
		fsys:         opts.FS,
		opts:         opts,
		mHits:        reg.Counter("store_hits_total"),
		mMisses:      reg.Counter("store_misses_total"),
		mQuarantined: reg.Counter("store_quarantined_total"),
		mEvicted:     reg.Counter("store_evicted_total"),
		mPutErrors:   reg.Counter("store_put_errors_total"),
		mEntries:     reg.Gauge("store_entries"),
		mBytes:       reg.Gauge("store_bytes"),
	}
	for _, d := range []string{dir, s.objectsDir(), s.quarantineDir()} {
		if err := s.fsys.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	if err := s.sweepOrphans(); err != nil && !errors.Is(err, ErrLocked) {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return s, nil
}

func (s *Store) objectsDir() string    { return filepath.Join(s.dir, "objects") }
func (s *Store) quarantineDir() string { return filepath.Join(s.dir, "quarantine") }
func (s *Store) lockPath() string      { return filepath.Join(s.dir, "maintenance.lock") }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// splitKey validates a cache key ("<kind>:<hex sha256>") and returns its
// parts. Validation doubles as path-traversal protection: keys become
// file names.
func splitKey(key string) (kind, digest string, err error) {
	kind, digest, ok := strings.Cut(key, ":")
	if !ok || kind == "" || digest == "" {
		return "", "", fmt.Errorf("store: malformed key %q", key)
	}
	for _, r := range kind {
		if !(r == '-' || (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')) {
			return "", "", fmt.Errorf("store: key kind %q has invalid character %q", kind, r)
		}
	}
	for _, r := range digest {
		if !((r >= '0' && r <= '9') || (r >= 'a' && r <= 'f')) {
			return "", "", fmt.Errorf("store: key digest %q is not lowercase hex", digest)
		}
	}
	return kind, digest, nil
}

func (s *Store) entryPath(kind, digest string) string {
	return filepath.Join(s.objectsDir(), kind, digest+".art")
}

// header is the self-describing first line of an artifact file, the same
// envelope discipline as a checkpoint: JSON terminated by '\n', then
// exactly PayloadBytes of payload. One hash pass verifies the whole file.
type header struct {
	Magic         string `json:"magic"`
	Version       int    `json:"version"`
	Key           string `json:"key"`
	PayloadBytes  int    `json:"payload_bytes"`
	PayloadSHA256 string `json:"payload_sha256"`
}

// encodeEnvelope wraps payload for key.
func encodeEnvelope(key string, payload []byte) ([]byte, error) {
	sum := sha256.Sum256(payload)
	hb, err := json.Marshal(header{
		Magic:         Magic,
		Version:       FormatVersion,
		Key:           key,
		PayloadBytes:  len(payload),
		PayloadSHA256: hex.EncodeToString(sum[:]),
	})
	if err != nil {
		return nil, fmt.Errorf("store: encode header: %w", err)
	}
	var buf bytes.Buffer
	buf.Grow(len(hb) + 1 + len(payload))
	buf.Write(hb)
	buf.WriteByte('\n')
	buf.Write(payload)
	return buf.Bytes(), nil
}

// decodeEnvelope verifies data against key and returns the payload. Any
// failure means the entry must not be served.
func decodeEnvelope(key string, data []byte) ([]byte, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("%w: missing header line", ErrCorruptArtifact)
	}
	var hdr header
	if err := json.Unmarshal(data[:nl], &hdr); err != nil {
		return nil, fmt.Errorf("%w: bad header: %v", ErrCorruptArtifact, err)
	}
	if hdr.Magic != Magic {
		return nil, fmt.Errorf("%w: not an artifact file (magic %q)", ErrCorruptArtifact, hdr.Magic)
	}
	if hdr.Version != FormatVersion {
		return nil, fmt.Errorf("%w: format version %d, this build reads %d", ErrCorruptArtifact, hdr.Version, FormatVersion)
	}
	if key != "" && hdr.Key != key {
		return nil, fmt.Errorf("%w: entry holds key %q, path says %q", ErrCorruptArtifact, hdr.Key, key)
	}
	payload := data[nl+1:]
	if len(payload) != hdr.PayloadBytes {
		return nil, fmt.Errorf("%w: payload is %d bytes, header says %d (torn write)",
			ErrCorruptArtifact, len(payload), hdr.PayloadBytes)
	}
	sum := sha256.Sum256(payload)
	if got := hex.EncodeToString(sum[:]); got != hdr.PayloadSHA256 {
		return nil, fmt.Errorf("%w: payload sha256 %s, header says %s", ErrCorruptArtifact, got, hdr.PayloadSHA256)
	}
	return payload, nil
}

// Seal wraps payload in the store's self-verifying envelope under an
// arbitrary label. It is the same discipline entries use on disk —
// header line with payload length + SHA-256, then the payload — exposed
// so other on-disk formats (the learn registry's manifest and telemetry
// log) can detect torn or corrupt messages the same way the store does.
func Seal(label string, payload []byte) ([]byte, error) {
	return encodeEnvelope(label, payload)
}

// Unseal verifies data sealed under label and returns the payload. Any
// failure — torn write, flipped bit, wrong label — reports
// ErrCorruptArtifact; callers treat the message as absent.
func Unseal(label string, data []byte) ([]byte, error) {
	return decodeEnvelope(label, data)
}

// Put publishes payload under key. The write is atomic: a crash at any
// instant leaves either no entry or the complete verified entry, never a
// torn one (a temporary a crash strands is quarantined by the next Open).
// Concurrent Puts of the same key are idempotent — the payload is
// determined by the key.
func (s *Store) Put(key string, payload []byte) error {
	kind, digest, err := splitKey(key)
	if err != nil {
		return err
	}
	if err := s.fsys.MkdirAll(filepath.Join(s.objectsDir(), kind), 0o755); err != nil {
		s.countPutError()
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	data, err := encodeEnvelope(key, payload)
	if err != nil {
		s.countPutError()
		return err
	}
	if err := atomicio.WriteFileFS(s.fsys, s.entryPath(kind, digest), data, 0o644); err != nil {
		s.countPutError()
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	return nil
}

// Get returns the payload stored under key, verifying the envelope. A
// missing entry returns ErrNotFound; an entry that fails verification is
// quarantined first and returns ErrCorruptArtifact — corrupt data is
// never served, and the next Put simply rebuilds the entry. A successful
// read refreshes the entry's mtime (the GC's LRU clock).
func (s *Store) Get(key string) ([]byte, error) {
	kind, digest, err := splitKey(key)
	if err != nil {
		return nil, err
	}
	path := s.entryPath(kind, digest)
	data, err := s.fsys.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		s.mMisses.Inc()
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, fmt.Errorf("store: get %s: %w", key, err)
	}
	payload, err := decodeEnvelope(key, data)
	if err != nil {
		s.quarantine(path, err)
		s.misses.Add(1)
		s.mMisses.Inc()
		return nil, fmt.Errorf("store: get %s: %w", key, err)
	}
	now := time.Now()
	_ = s.fsys.Chtimes(path, now, now) // best-effort LRU touch
	s.hits.Add(1)
	s.mHits.Inc()
	return payload, nil
}

// Has reports whether key has an entry on disk (without verifying it).
func (s *Store) Has(key string) bool {
	kind, digest, err := splitKey(key)
	if err != nil {
		return false
	}
	_, err = s.fsys.Stat(s.entryPath(kind, digest))
	return err == nil
}

// quarantine moves a failing entry out of the serving tree, falling back
// to deletion if even the rename fails — an unverifiable entry must not
// stay where Get can find it.
func (s *Store) quarantine(path string, reason error) {
	dst := filepath.Join(s.quarantineDir(),
		fmt.Sprintf("%s.%d.%d", filepath.Base(path), os.Getpid(), s.seq.Add(1)))
	if err := s.fsys.Rename(path, dst); err != nil {
		_ = s.fsys.Remove(path)
	}
	_ = s.fsys.SyncDir(s.quarantineDir())
	_ = reason // reason travels on the returned error; the move is the action
	s.quarantined.Add(1)
	s.mQuarantined.Inc()
}

// Stats returns the cumulative counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Quarantined: s.quarantined.Load(),
		Evicted:     s.evicted.Load(),
		PutErrors:   s.putErrors.Load(),
	}
}

func (s *Store) countPutError() {
	s.putErrors.Add(1)
	s.mPutErrors.Inc()
}

// entryInfo is one on-disk entry, as seen by maintenance scans.
type entryInfo struct {
	key   string // reconstructed from the path
	path  string
	size  int64
	mtime time.Time
}

// scanEntries walks objects/ and returns every entry file.
func (s *Store) scanEntries() ([]entryInfo, error) {
	kinds, err := s.fsys.ReadDir(s.objectsDir())
	if err != nil {
		return nil, err
	}
	var out []entryInfo
	for _, kd := range kinds {
		if !kd.IsDir() {
			continue
		}
		kindDir := filepath.Join(s.objectsDir(), kd.Name())
		files, err := s.fsys.ReadDir(kindDir)
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".art") {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue // vanished mid-scan (concurrent GC)
			}
			out = append(out, entryInfo{
				key:   kd.Name() + ":" + strings.TrimSuffix(f.Name(), ".art"),
				path:  filepath.Join(kindDir, f.Name()),
				size:  info.Size(),
				mtime: info.ModTime(),
			})
		}
	}
	return out, nil
}

// EntryInfo describes one stored artifact, for operator tooling
// (`solarsched store ls`).
type EntryInfo struct {
	Key     string    `json:"key"`
	Size    int64     `json:"size"`
	ModTime time.Time `json:"mod_time"`
}

// Entries lists every artifact currently on disk, sorted by key. The
// listing does not verify envelopes (use Verify for that) and does not
// touch LRU clocks.
func (s *Store) Entries() ([]EntryInfo, error) {
	es, err := s.scanEntries()
	if err != nil {
		return nil, err
	}
	out := make([]EntryInfo, 0, len(es))
	for _, e := range es {
		out = append(out, EntryInfo{Key: e.key, Size: e.size, ModTime: e.mtime})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// QuarantineContents lists the files currently held in quarantine/ —
// the entries that failed verification and were pulled from serving.
func (s *Store) QuarantineContents() ([]EntryInfo, error) {
	files, err := s.fsys.ReadDir(s.quarantineDir())
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var out []EntryInfo
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		info, err := f.Info()
		if err != nil {
			continue
		}
		out = append(out, EntryInfo{Key: f.Name(), Size: info.Size(), ModTime: info.ModTime()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// setGauges publishes the store's current footprint.
func (s *Store) setGauges(entries int, bytes int64) {
	s.mEntries.Set(float64(entries))
	s.mBytes.Set(float64(bytes))
}

// Len returns the current entry count and total on-disk bytes.
func (s *Store) Len() (entries int, size int64, err error) {
	es, err := s.scanEntries()
	if err != nil {
		return 0, 0, err
	}
	for _, e := range es {
		size += e.size
	}
	s.setGauges(len(es), size)
	return len(es), size, nil
}

// sweepOrphans quarantines publication temporaries a crash left inside
// objects/ — the partial entries of writers that died mid-Put.
func (s *Store) sweepOrphans() error {
	unlock, err := s.acquireLock()
	if err != nil {
		return err
	}
	defer unlock()
	kinds, err := s.fsys.ReadDir(s.objectsDir())
	if err != nil {
		return err
	}
	for _, kd := range kinds {
		if !kd.IsDir() {
			continue
		}
		kindDir := filepath.Join(s.objectsDir(), kd.Name())
		files, err := s.fsys.ReadDir(kindDir)
		if err != nil {
			return err
		}
		for _, f := range files {
			if f.IsDir() || !strings.Contains(f.Name(), ".tmp-") {
				continue
			}
			s.quarantine(filepath.Join(kindDir, f.Name()),
				fmt.Errorf("%w: orphaned publication temporary", ErrCorruptArtifact))
		}
	}
	return nil
}

// VerifyStats summarizes a Verify pass.
type VerifyStats struct {
	Checked     int   `json:"checked"`
	Adopted     int   `json:"adopted"`
	Quarantined int   `json:"quarantined"`
	Bytes       int64 `json:"bytes"`
}

// Verify reads and verifies every entry, quarantining failures — the
// warm-restart adoption pass: what survives Verify is served. Runs under
// the maintenance lock (ErrLocked if another process holds it).
func (s *Store) Verify() (VerifyStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	unlock, err := s.acquireLock()
	if err != nil {
		return VerifyStats{}, err
	}
	defer unlock()

	entries, err := s.scanEntries()
	if err != nil {
		return VerifyStats{}, err
	}
	var vs VerifyStats
	for _, e := range entries {
		vs.Checked++
		data, err := s.fsys.ReadFile(e.path)
		if err == nil {
			_, err = decodeEnvelope(e.key, data)
		}
		if err != nil {
			s.quarantine(e.path, err)
			vs.Quarantined++
			continue
		}
		vs.Adopted++
		vs.Bytes += e.size
	}
	s.setGauges(vs.Adopted, vs.Bytes)
	return vs, nil
}

// GCStats summarizes a GC pass.
type GCStats struct {
	Scanned        int   `json:"scanned"`
	Evicted        int   `json:"evicted"`
	FreedBytes     int64 `json:"freed_bytes"`
	RemainingBytes int64 `json:"remaining_bytes"`
}

// GC enforces the store's age and size budgets: entries unread for longer
// than MaxAge go first, then the least recently used entries until the
// total is back under MaxBytes. Runs under the maintenance lock
// (ErrLocked if another process holds it). With both budgets unset it
// only refreshes the footprint gauges.
func (s *Store) GC() (GCStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	unlock, err := s.acquireLock()
	if err != nil {
		return GCStats{}, err
	}
	defer unlock()

	entries, err := s.scanEntries()
	if err != nil {
		return GCStats{}, err
	}
	var gs GCStats
	gs.Scanned = len(entries)
	var total int64
	for _, e := range entries {
		total += e.size
	}
	evict := func(e entryInfo) {
		if err := s.fsys.Remove(e.path); err != nil {
			return
		}
		gs.Evicted++
		gs.FreedBytes += e.size
		total -= e.size
		s.evicted.Add(1)
		s.mEvicted.Inc()
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
	if s.opts.MaxAge > 0 {
		cutoff := time.Now().Add(-s.opts.MaxAge)
		kept := entries[:0]
		for _, e := range entries {
			if e.mtime.Before(cutoff) {
				evict(e)
				continue
			}
			kept = append(kept, e)
		}
		entries = kept
	}
	if s.opts.MaxBytes > 0 {
		for _, e := range entries {
			if total <= s.opts.MaxBytes {
				break
			}
			evict(e)
		}
	}
	gs.RemainingBytes = total
	s.setGauges(gs.Scanned-gs.Evicted, total)
	return gs, nil
}

// lockInfo is the maintenance lock's content, for diagnostics: who holds
// it, since when.
type lockInfo struct {
	PID      int    `json:"pid"`
	AtUnixMS int64  `json:"at_unix_ms"`
	Host     string `json:"host,omitempty"`
}

// acquireLock takes the maintenance lock (see FS.TryLock), or returns an
// error wrapping ErrLocked when another holder has it. The lock lives
// exactly as long as its holder: the kernel releases it when the holder's
// process dies, so a lock file left by a crash never blocks maintenance.
func (s *Store) acquireLock() (release func(), err error) {
	host, _ := os.Hostname()
	data, _ := json.Marshal(lockInfo{PID: os.Getpid(), AtUnixMS: time.Now().UnixMilli(), Host: host})
	release, err = s.fsys.TryLock(s.lockPath(), data, 0o644)
	if err != nil && !errors.Is(err, ErrLocked) {
		return nil, fmt.Errorf("store: acquiring maintenance lock: %w", err)
	}
	return release, err
}
