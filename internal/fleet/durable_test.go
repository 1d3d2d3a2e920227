package fleet

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"solarsched/internal/store"
)

// durableFleetFile is the warm-restart scenario: four schedulers over one
// WAM configuration, touching every durable artifact kind (trace, patterns,
// sizing, samples, dbn, plan).
func durableFleetFile() *FileSpec {
	train := TrainSpec{Days: 2, Seed: 777, DayOfYear: 80, FineEpochs: 8}
	return &FileSpec{
		Defaults: RunSpec{
			Graph: "wam",
			Trace: TraceSpec{Kind: "gen", Days: 2, Seed: 42, DayOfYear: 80},
			Train: &train,
		},
		Runs: []RunSpec{
			{ID: "proposed", Scheduler: "proposed"},
			{ID: "optimal", Scheduler: "optimal"},
			{ID: "inter", Scheduler: "inter"},
			{ID: "asap", Scheduler: "asap"},
		},
	}
}

func runDurableFleet(t *testing.T, cache *Cache) *Report {
	t.Helper()
	specs, err := durableFleetFile().Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), specs, Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.FirstErr(); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestDurableCacheWarmRestart is the tentpole invariant: a fleet served
// from a warm store after a "restart" (fresh process state, same disk)
// produces the bit-identical aggregate digest of a cold run — and of a
// run with no durable layer at all. Persistence must be invisible in the
// results and visible only in the warmth.
func TestDurableCacheWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a network in -short mode")
	}
	baseline := runDurableFleet(t, NewCache(nil)).AggregateDigest()

	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold := NewDurableCache(nil, st)
	coldDigest := runDurableFleet(t, cold).AggregateDigest()
	if coldDigest != baseline {
		t.Fatalf("durable layer changed results on a cold run:\n  plain   %s\n  durable %s", baseline, coldDigest)
	}
	w, b := cold.WarmStats()
	if w != 0 || b == 0 {
		t.Fatalf("cold run warm stats = %d warm / %d cold, want 0 warm and >0 cold", w, b)
	}

	// "Restart": a fresh store handle and a fresh in-memory cache over the
	// same directory — everything the first process built must be adopted.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vs, err := st2.Verify(); err != nil || vs.Quarantined != 0 || vs.Adopted == 0 {
		t.Fatalf("verify after restart = %+v, %v; want clean adoption", vs, err)
	}
	warm := NewDurableCache(nil, st2)
	warmDigest := runDurableFleet(t, warm).AggregateDigest()
	if warmDigest != baseline {
		t.Fatalf("warm restart changed results:\n  cold %s\n  warm %s", baseline, warmDigest)
	}
	w, b = warm.WarmStats()
	if rate := warm.WarmHitRate(); rate < 0.8 {
		t.Fatalf("warm-hit rate = %.2f (%d warm / %d cold), want >= 0.80", rate, w, b)
	}
	if b != 0 {
		t.Errorf("warm restart still built %d artifacts from scratch", b)
	}
}

// TestDurableCacheChaos is the fleet half of the CI chaos smoke: with the
// store riding a filesystem that fails 5% of data-path operations, every
// fleet still completes with the bit-identical digest of a fault-free run
// — persistence failures degrade warmth, corruption is quarantined before
// it can be decoded, and nothing ever reaches a simulation.
func TestDurableCacheChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a network in -short mode")
	}
	baseline := runDurableFleet(t, NewCache(nil)).AggregateDigest()

	dir := t.TempDir()
	ffs := store.NewFaultFS(store.OS, store.Uniform(1234, 0.05))
	var st *store.Store
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		// Open itself can lose to an injected fault (e.g. on the
		// maintenance lock); an operator would just retry it.
		if st, err = store.Open(dir, store.Options{FS: ffs}); err == nil {
			break
		}
		if !errors.Is(err, store.ErrInjected) {
			t.Fatal(err)
		}
	}
	if err != nil {
		t.Fatalf("store.Open never survived 5%% faults: %v", err)
	}

	// Several fleet generations over the same faulty store: later ones mix
	// warm hits (when a persisted artifact survives read + digest check)
	// with rebuilds (when injection eats it) — the digest must not care.
	for gen := 0; gen < 3; gen++ {
		cache := NewDurableCache(nil, st)
		if got := runDurableFleet(t, cache).AggregateDigest(); got != baseline {
			t.Fatalf("generation %d digest diverged under faults:\n  clean %s\n  chaos %s", gen, baseline, got)
		}
	}

	// Whatever the chaos run left on disk must be clean: atomic
	// publication means a failed Put leaves nothing, and a fault-free
	// verify pass adopts every survivor.
	clean, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vs, err := clean.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if vs.Quarantined != 0 {
		t.Errorf("chaos left %d corrupt entries on disk: %+v", vs.Quarantined, vs)
	}
}

// TestDurableCacheDecodeFailureRebuilds: a key whose persisted bytes fail
// to decode (format drift) silently falls back to a rebuild that
// overwrites the entry. The drift that happens in practice is a store a
// build with the JSON payload format filled: no such payload may decode
// into an artifact; each entry is rebuilt once and then served warm, with
// the artifact a cold build makes.
func TestDurableCacheDecodeFailureRebuilds(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Persist garbage under the exact key the cache will derive.
	c := NewDurableCache(nil, st)
	key := artifactKey("sizing", "bogus")
	if err := st.Put(key, []byte("not gob")); err != nil {
		t.Fatal(err)
	}
	built := 0
	v, err := c.Do(context.Background(), key, func() (any, error) {
		built++
		return []float64{1, 2}, nil
	})
	if err != nil || built != 1 {
		t.Fatalf("Do = (%v, %v), built %d times; want a rebuild", v, err, built)
	}
	if w, _ := c.WarmStats(); w != 0 {
		t.Fatalf("undecodable entry counted as a warm hit (%d)", w)
	}

	// Every kind's JSON payload, as the JSON codecs wrote it, under the
	// artifact's own key.
	vals, keys := seededArtifacts(t)
	dir := t.TempDir()
	old, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	codecs := artifactCodecs()
	for _, kind := range durableKinds {
		data, err := jsonOf(vals[kind])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := codecs[kind].Decode(data); err == nil {
			t.Errorf("%s: a JSON payload decoded into an artifact", kind)
		}
		if err := old.Put(keys[kind], data); err != nil {
			t.Fatal(err)
		}
	}
	for pass, want := range []struct{ warm, cold int64 }{
		{0, int64(len(durableKinds))}, // each JSON entry rebuilt once
		{int64(len(durableKinds)), 0}, // the rebuilds overwrote them
	} {
		reopened, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cache := NewDurableCache(nil, reopened)
		got := codecArtifacts(t, cache)
		if w, b := cache.WarmStats(); w != want.warm || b != want.cold {
			t.Fatalf("pass %d: %d warm hits, %d cold builds; want %d and %d", pass, w, b, want.warm, want.cold)
		}
		for _, kind := range durableKinds {
			if d := artifactDiff(kind, vals[kind], got[kind]); d != "" {
				t.Errorf("pass %d: %s differs from the cold build at %s", pass, kind, d)
			}
		}
	}
}

// TestTransientBuildErrorsNotCachedForever is the single-flight fix: a
// transient build failure must be evicted so the next caller rebuilds,
// while a permanent failure stays cached (it is as deterministic as a
// success). Before the fix, one bad I/O moment poisoned a key for the
// process lifetime.
func TestTransientBuildErrorsNotCachedForever(t *testing.T) {
	ctx := context.Background()
	c := NewCache(nil)

	builds := 0
	transientBuild := func() (any, error) {
		builds++
		if builds == 1 {
			return nil, fmt.Errorf("blip: %w", ErrTransient)
		}
		return "ok", nil
	}
	if _, err := c.Do(ctx, "k:1", transientBuild); !errors.Is(err, ErrTransient) {
		t.Fatalf("first call err = %v, want ErrTransient", err)
	}
	v, err := c.Do(ctx, "k:1", transientBuild)
	if err != nil || v != "ok" || builds != 2 {
		t.Fatalf("after transient failure: v=%v err=%v builds=%d, want rebuild to succeed", v, err, builds)
	}
	if v, err = c.Do(ctx, "k:1", transientBuild); err != nil || v != "ok" || builds != 2 {
		t.Fatalf("success not cached: v=%v err=%v builds=%d", v, err, builds)
	}

	permBuilds := 0
	permanentBuild := func() (any, error) {
		permBuilds++
		return nil, errors.New("bad inputs")
	}
	_, err1 := c.Do(ctx, "k:2", permanentBuild)
	_, err2 := c.Do(ctx, "k:2", permanentBuild)
	if err1 == nil || err2 == nil || permBuilds != 1 {
		t.Fatalf("permanent failure: errs=(%v, %v) builds=%d, want cached error and 1 build", err1, err2, permBuilds)
	}
}
