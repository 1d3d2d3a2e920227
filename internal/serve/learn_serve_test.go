package serve

import (
	"bytes"
	"context"
	"net/http"
	"testing"

	"solarsched/internal/ann"
	"solarsched/internal/fleet"
	"solarsched/internal/learn"
	"solarsched/internal/obs"
)

// newLearnLoop builds a loop over the package's shared cache with the
// background ticker off — cycles and promotions are driven explicitly.
func newLearnLoop(t *testing.T) *learn.Loop {
	t.Helper()
	loop, err := learn.Open(learn.Config{
		Dir:      t.TempDir(),
		Registry: obs.NewRegistry(),
		Cache:    testCache,
	})
	if err != nil {
		t.Fatal(err)
	}
	loop.Start(context.Background())
	t.Cleanup(func() {
		if err := loop.Close(); err != nil {
			t.Errorf("loop close: %v", err)
		}
	})
	return loop
}

// TestDecideServesPromotedModelWithoutRestart is the registry-invalidation
// contract of fleet.NetworkFor's serving path: promoting a model with a
// new digest changes the very next /v1/decide answer — no daemon restart,
// no cache flush — and rolling back restores the original answers bit for
// bit.
func TestDecideServesPromotedModelWithoutRestart(t *testing.T) {
	loop := newLearnLoop(t)
	_, ts := newTestServer(t, Config{Learn: loop})

	code, baseAnswer := postJSON(t, ts.URL+"/v1/decide", testDecideBody)
	if code != http.StatusOK {
		t.Fatalf("decide: HTTP %d: %s", code, baseAnswer)
	}

	// v1 = the base network's own weights; serving it must not change
	// answers (same weights, different resolution path).
	_, baseNet, err := fleet.NetworkFor(context.Background(), testCache, nil, "wam", 2, testTrain)
	if err != nil {
		t.Fatal(err)
	}
	key := learn.Key("wam", 2, testTrain)
	reg := loop.ModelRegistry()
	if err := reg.EnsureLineage(key, learn.LineageSpec{Graph: "wam", H: 2, Train: testTrain}); err != nil {
		t.Fatal(err)
	}
	v1, err := reg.Register(key, baseNet)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Promote(key, v1.Version); err != nil {
		t.Fatal(err)
	}
	code, sameAnswer := postJSON(t, ts.URL+"/v1/decide", testDecideBody)
	if code != http.StatusOK {
		t.Fatalf("decide after identity promotion: HTTP %d: %s", code, sameAnswer)
	}
	if !bytes.Equal(baseAnswer, sameAnswer) {
		t.Fatalf("identical weights changed the answer:\n%s\nvs\n%s", baseAnswer, sameAnswer)
	}

	// v2 = different weights (fresh init, same shape). Promotion must be
	// visible on the next decide.
	cfg := baseNet.Config()
	cfg.Seed = 991199
	v2, err := reg.Register(key, ann.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if v2.Digest == v1.Digest {
		t.Fatal("fresh weights share the base digest")
	}
	if _, err := reg.Promote(key, v2.Version); err != nil {
		t.Fatal(err)
	}
	code, newAnswer := postJSON(t, ts.URL+"/v1/decide", testDecideBody)
	if code != http.StatusOK {
		t.Fatalf("decide after promotion: HTTP %d: %s", code, newAnswer)
	}
	if bytes.Equal(baseAnswer, newAnswer) {
		t.Fatal("promoting new weights did not change the served decision")
	}

	// Rollback: instantly back to bit-identical original answers.
	if _, err := reg.Rollback(key); err != nil {
		t.Fatal(err)
	}
	code, rolledBack := postJSON(t, ts.URL+"/v1/decide", testDecideBody)
	if code != http.StatusOK {
		t.Fatalf("decide after rollback: HTTP %d: %s", code, rolledBack)
	}
	if !bytes.Equal(baseAnswer, rolledBack) {
		t.Fatalf("rollback did not restore the original answers:\n%s\nvs\n%s", baseAnswer, rolledBack)
	}

	// Every answered decide landed in the telemetry log.
	if n := loop.Telemetry().Len(); n != 4 {
		t.Fatalf("telemetry holds %d records, want 4", n)
	}
}

// TestDecideWithIdleLearnLoopBitIdentical: a daemon with the learning loop
// enabled but nothing promoted answers exactly like a loop-less daemon —
// the loop rides along, it never perturbs serving.
func TestDecideWithIdleLearnLoopBitIdentical(t *testing.T) {
	_, plain := newTestServer(t, Config{})
	loop := newLearnLoop(t)
	_, learning := newTestServer(t, Config{Learn: loop})

	code, want := postJSON(t, plain.URL+"/v1/decide", testDecideBody)
	if code != http.StatusOK {
		t.Fatalf("plain decide: HTTP %d: %s", code, want)
	}
	code, got := postJSON(t, learning.URL+"/v1/decide", testDecideBody)
	if code != http.StatusOK {
		t.Fatalf("learning decide: HTTP %d: %s", code, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("idle learn loop changed the answer:\n%s\nvs\n%s", got, want)
	}
}
