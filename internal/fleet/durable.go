package fleet

import (
	"bytes"
	"encoding/gob"

	"solarsched/internal/ann"
	"solarsched/internal/obs"
	"solarsched/internal/sizing"
	"solarsched/internal/solar"
)

// Persister is the durable layer under the in-memory cache: a key/value
// byte store that survives the process. *store.Store satisfies it. Get
// must return an error for absent keys; Put must publish atomically (a
// crashed Put must never leave a readable partial value — the store's
// envelope + quarantine discipline guarantees this).
type Persister interface {
	Get(key string) ([]byte, error)
	Put(key string, data []byte) error
}

// Codec serializes one artifact kind for the durable layer. Encode and
// Decode must round-trip exactly: a decoded artifact feeds the same
// simulations as the original, so any drift would silently change run
// digests. Every kind uses gobCodec. encoding/gob writes a float64 as its
// IEEE-754 bits (a byte-reversed uint64) and an int as a varint, so every
// field round-trips bit for bit, NaN and ±Inf included, which
// encoding/json refuses to write. gob sends no empty slice, so an empty
// slice decodes as nil; no artifact depends on the difference.
type Codec struct {
	Encode func(v any) ([]byte, error)
	Decode func(data []byte) (any, error)
}

// gobCodec round-trips an artifact the cache holds as a V: a pointer for
// the struct kinds, the slice itself for the slice kinds. Decoding into a
// *V lets gob allocate whatever V points to, so both forms share one
// codec. Each payload is a gob stream of its own, types included, so an
// entry decodes without any other.
func gobCodec[V any]() Codec {
	return Codec{
		Encode: func(v any) ([]byte, error) {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(v); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		},
		Decode: func(data []byte) (any, error) {
			var v V
			if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v); err != nil {
				return nil, err
			}
			return v, nil
		},
	}
}

// artifactCodecs maps durable artifact kinds (the prefix of a cache key,
// see digest.go) to their codec: one gob codec for all six. A trained
// network goes through ann.Network's MarshalBinary/UnmarshalBinary, which
// gob calls and which validate every dimension as ann.ReadJSON does. An
// entry a build with another payload format wrote fails to decode and is
// rebuilt once, under the same key (see durableGet). Kinds absent here
// stay memory-only: trace-builtin is cheaper to regenerate than to read
// back, and keeping it out also exercises the mixed durable/volatile path.
func artifactCodecs() map[string]Codec {
	return map[string]Codec{
		"trace":    gobCodec[*solar.Trace](),
		"patterns": gobCodec[[]sizing.DayPattern](),
		"sizing":   gobCodec[[]float64](),
		"samples":  gobCodec[*SampleSet](),
		"plan":     gobCodec[*PlanArtifact](),
		"dbn":      gobCodec[*ann.Network](),
	}
}

// NewDurableCache returns a cache whose artifacts are read through and
// written through p: a key found there is decoded instead of rebuilt (a
// warm hit), and every cold build of a durable kind is persisted
// best-effort — persistence failures cost only future warmth, never the
// current fleet. reg may be nil.
func NewDurableCache(reg *obs.Registry, p Persister) *Cache {
	c := NewCache(reg)
	c.persist = p
	c.codecs = artifactCodecs()
	c.mWarmHits = reg.Counter("fleet_cache_warm_hits_total")
	c.mColdBuilds = reg.Counter("fleet_cache_cold_builds_total")
	c.mPersistErrs = reg.Counter("fleet_cache_persist_errors_total")
	return c
}

// WarmStats returns how many durable-kind artifacts were served from the
// persister (warm) versus built from scratch (cold). Volatile kinds count
// in neither.
func (c *Cache) WarmStats() (warmHits, coldBuilds int64) {
	return c.warmHits.Load(), c.coldBuilds.Load()
}

// WarmHitRate returns warmHits/(warmHits+coldBuilds), or 0 before any
// durable-kind request — the number the warm-restart acceptance gate
// checks at /readyz.
func (c *Cache) WarmHitRate() float64 {
	w, b := c.WarmStats()
	if w+b == 0 {
		return 0
	}
	return float64(w) / float64(w+b)
}

// durableGet tries to satisfy key from the persister. It returns (value,
// true) only when the persisted bytes decode cleanly; any read or decode
// failure degrades to a rebuild.
func (c *Cache) durableGet(key string, codec Codec) (any, bool) {
	data, err := c.persist.Get(key)
	if err != nil {
		return nil, false
	}
	v, err := codec.Decode(data)
	if err != nil {
		// The store's digest check makes this near-impossible (corruption
		// is quarantined before decode); a decode failure here means a
		// format change, and rebuilding is the right response to that too.
		return nil, false
	}
	return v, true
}

// durablePut persists a freshly built artifact, best-effort.
func (c *Cache) durablePut(key string, codec Codec, v any) {
	data, err := codec.Encode(v)
	if err == nil {
		err = c.persist.Put(key, data)
	}
	if err != nil {
		c.mPersistErrs.Inc()
	}
}

// kindOf splits the artifact kind off a cache key ("sizing:ab12…" →
// "sizing").
func kindOf(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == ':' {
			return key[:i]
		}
	}
	return key
}
