package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"solarsched/internal/store"
)

// TestSubmit429RetryAfterJitter: rejected submissions must not all be told
// to come back at the same instant. With the queue deterministically full,
// every 429's Retry-After must land in [1, 3] seconds and the population
// must spread over at least two distinct values — synchronized loadgen
// clients de-synchronize instead of stampeding back together.
func TestSubmit429RetryAfterJitter(t *testing.T) {
	s := New(Config{QueueDepth: 1, Cache: testCache, RetryAfterSeed: 5})
	// Ready but no executor: the queue stays full after one admission.
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, b := postJSON(t, ts.URL+"/v1/runs", testSpec); code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d: %s", code, b)
	}

	seen := map[int]int{}
	for i := 0; i < 24; i++ {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(testSpec))
		if err != nil {
			t.Fatalf("overflow submit %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overflow submit %d: HTTP %d, want 429", i, resp.StatusCode)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil {
			t.Fatalf("overflow submit %d: unparsable Retry-After %q", i, resp.Header.Get("Retry-After"))
		}
		if ra < 1 || ra > 3 {
			t.Fatalf("overflow submit %d: Retry-After = %d, want 1..3", i, ra)
		}
		seen[ra]++
	}
	if len(seen) < 2 {
		t.Fatalf("24 rejections all got the same Retry-After (%v) — no jitter", seen)
	}
}

// TestStoreWarmRestart is the daemon half of the warm-restart acceptance:
// a daemon booted over the store a previous daemon populated serves a
// resubmitted spec almost entirely from adopted artifacts — bit-identical
// aggregate digest, >= 80% warm-hit rate reported at /readyz.
func TestStoreWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a network in -short mode")
	}
	dir := t.TempDir()

	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{Store: st1})
	code, b := postJSON(t, ts1.URL+"/v1/runs?wait=1", testSpec)
	if code != http.StatusOK {
		t.Fatalf("cold submit: HTTP %d: %s", code, b)
	}
	stat1, rep1 := decodeStatus(t, b)
	if stat1.State != StateDone || rep1.AggregateDigest == "" {
		t.Fatalf("cold job: state %s report %+v", stat1.State, rep1)
	}

	// "Restart": stop the first daemon, then a fresh store handle, cache
	// and daemon over the same directory. The stop matters: the executor
	// runs a store GC after each job, after its waiters are released, and
	// that GC holds the maintenance lock the boot-time Verify needs.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("stopping the first daemon: %v", err)
	}
	// Verify is the boot-time adoption pass solarschedd runs.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vs, err := st2.Verify()
	if err != nil || vs.Adopted == 0 || vs.Quarantined != 0 {
		t.Fatalf("boot verify = %+v, %v; want clean adoption of the first daemon's artifacts", vs, err)
	}
	_, ts2 := newTestServer(t, Config{Store: st2})
	code, b = postJSON(t, ts2.URL+"/v1/runs?wait=1", testSpec)
	if code != http.StatusOK {
		t.Fatalf("warm submit: HTTP %d: %s", code, b)
	}
	stat2, rep2 := decodeStatus(t, b)
	if stat2.State != StateDone {
		t.Fatalf("warm job state = %s (err %q)", stat2.State, stat2.Error)
	}
	if rep2.AggregateDigest != rep1.AggregateDigest {
		t.Fatalf("warm restart changed results:\n  cold %s\n  warm %s", rep1.AggregateDigest, rep2.AggregateDigest)
	}

	code, b = getJSON(t, ts2.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("/readyz: HTTP %d: %s", code, b)
	}
	var ready readyResponse
	if err := json.Unmarshal(b, &ready); err != nil {
		t.Fatalf("decoding /readyz: %v\n%s", err, b)
	}
	if ready.Store == nil {
		t.Fatalf("/readyz missing store section: %s", b)
	}
	if ready.Store.WarmHitRate < 0.8 {
		t.Fatalf("/readyz warm-hit rate = %.2f (%d warm / %d cold), want >= 0.80",
			ready.Store.WarmHitRate, ready.Store.WarmHits, ready.Store.ColdBuilds)
	}
	if ready.Store.Entries == 0 || ready.Store.Quarantined != 0 {
		t.Fatalf("/readyz store section = %+v, want adopted entries and no quarantine", ready.Store)
	}
}
