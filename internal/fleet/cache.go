// Package fleet is the batch-simulation subsystem: it executes a fleet of
// (trace, graph, capacitor bank, scheduler, seed) run specs across a
// bounded worker pool and lets all runs share one content-addressed cache
// of offline artifacts — sized banks (§4.1), DP teacher samples and plans
// (§4.2), minimum-energy LUT entries (eq. (13)) and trained DBN weights
// (§5.1) — so N runs sharing a configuration pay each offline stage once.
//
// The cache is single-flight: when two runs request the same artifact
// concurrently, one builds it and the other waits for the result; nothing
// is ever trained or planned twice per process. Keys are SHA-256 digests
// of exactly the inputs that determine the artifact (see digest.go), so a
// key collision means the artifacts are interchangeable by construction.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"solarsched/internal/obs"
	"solarsched/internal/sim"
)

// Cache is the shared offline-artifact store. The zero value is not usable;
// construct with NewCache. All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry

	hits, misses atomic.Int64

	// traceDigests memoizes TraceDigest for every trace the cache handed
	// out (*solar.Trace → *traceDigestMemo). Cached values are immutable
	// by contract, so a handed-out trace's digest never changes; any
	// other trace is hashed on every key (see traceDigest).
	traceDigests sync.Map

	// Durable layer (nil for a memory-only cache; see NewDurableCache).
	persist              Persister
	codecs               map[string]Codec
	warmHits, coldBuilds atomic.Int64

	// Pre-resolved instruments (nil-safe when built without a registry).
	mHits        *obs.Counter
	mMisses      *obs.Counter
	mEntries     *obs.Gauge
	mBuild       *obs.Timer
	mWarmHits    *obs.Counter
	mColdBuilds  *obs.Counter
	mPersistErrs *obs.Counter
}

type cacheEntry struct {
	done chan struct{} // closed when val/err are final
	val  any
	err  error
}

// NewCache returns an empty cache. reg may be nil to disable
// instrumentation.
func NewCache(reg *obs.Registry) *Cache {
	return &Cache{
		entries:  make(map[string]*cacheEntry),
		mHits:    reg.Counter("fleet_cache_hits_total"),
		mMisses:  reg.Counter("fleet_cache_misses_total"),
		mEntries: reg.Gauge("fleet_cache_entries"),
		mBuild:   reg.Timer("fleet_cache_build_seconds"),
	}
}

// Do returns the artifact stored under key, building it with build on first
// request. Concurrent callers of the same key share one build (single
// flight): exactly one runs build, the rest block until it finishes. Only
// permanent build errors are cached — a deterministic failure is as
// content-addressed as a success — while cancellation and transient
// (environmental) errors evict the failed flight so the next caller
// retries with a fresh build rather than being served a stale I/O error
// forever. The eviction happens exactly once, by the flight's builder; the
// waiters that shared the failure just return it. A panic inside build is
// recovered into an error so waiters never block forever.
//
// On a durable cache (NewDurableCache), keys of a durable kind are first
// looked up in the persister — a warm hit skips build entirely — and every
// cold build is written back best-effort.
//
// ctx bounds only this caller's wait; it is not passed to build, because
// the build's result will be shared with callers whose contexts are still
// live.
func (c *Cache) Do(ctx context.Context, key string, build func() (any, error)) (any, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, fmt.Errorf("fleet: waiting for artifact %s: %w", key, ctx.Err())
		}
		c.hits.Add(1)
		c.mHits.Inc()
		if e.err != nil {
			return nil, e.err
		}
		return e.val, nil
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Add(1)
	c.mMisses.Inc()
	c.mEntries.Set(float64(c.Len()))

	codec, durable := c.codecs[kindOf(key)]
	durable = durable && c.persist != nil
	if durable {
		if v, ok := c.durableGet(key, codec); ok {
			e.val = v
			c.warmHits.Add(1)
			c.mWarmHits.Inc()
			close(e.done)
			return e.val, nil
		}
	}

	sw := c.mBuild.Start()
	func() {
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("fleet: artifact %s: build panicked: %v", key, r)
			}
		}()
		e.val, e.err = build()
	}()
	sw.Stop()
	if e.err != nil && (isCancellation(e.err) || Transient(e.err)) {
		// Evict the failed flight so a later caller rebuilds. Guarded on
		// entry identity: only this flight is removed, exactly once, even
		// if a successor flight has already been installed under the key.
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	if e.err == nil && durable {
		c.coldBuilds.Add(1)
		c.mColdBuilds.Inc()
		c.durablePut(key, codec, e.val)
	}
	close(e.done)
	if e.err != nil {
		return nil, e.err
	}
	return e.val, nil
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, sim.ErrCanceled)
}

// Len returns the number of cached entries (including in-flight builds).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the cumulative hit and miss counts. A waiter that joins an
// in-flight build counts as a hit — the build was shared, not repeated.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// HitRate returns hits/(hits+misses), or 0 before any request.
func (c *Cache) HitRate() float64 {
	h, m := c.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
