package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"solarsched/internal/fleet"
)

// testTrain matches the train spec of the package's decide bodies so every
// test shares one trained network via testCache.
var testTrain = fleet.TrainSpec{Days: 2, Seed: 777, DayOfYear: 80, FineEpochs: 10}

const testDecideBody = `{
  "graph": "wam", "h": 2,
  "train": {"days": 2, "seed": 777, "day_of_year": 80, "fine_epochs": 10},
  "voltages": [3.0, 1.2],
  "period_of_day": 0,
  "active_cap": 0
}`

// TestTenantAuth: with tenancy on, unknown keys bounce with 401 and both
// header forms authenticate; metrics are accounted per tenant name.
func TestTenantAuth(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Tenants: []Tenant{
			{Name: "acme", Key: "k-acme"},
			{Name: "globex", Key: "k-globex"},
		},
	})

	do := func(hdr, val string) int {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/decide", bytes.NewReader([]byte(testDecideBody)))
		if err != nil {
			t.Fatal(err)
		}
		if hdr != "" {
			req.Header.Set(hdr, val)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := do("", ""); code != http.StatusUnauthorized {
		t.Fatalf("no key: HTTP %d, want 401", code)
	}
	if code := do("X-API-Key", "bogus"); code != http.StatusUnauthorized {
		t.Fatalf("unknown key: HTTP %d, want 401", code)
	}
	if code := do("X-API-Key", "k-acme"); code != http.StatusOK {
		t.Fatalf("X-API-Key: HTTP %d, want 200", code)
	}
	if code := do("Authorization", "Bearer k-globex"); code != http.StatusOK {
		t.Fatalf("Bearer: HTTP %d, want 200", code)
	}
	if n := srv.m.tenantDecides("acme").Value(); n != 1 {
		t.Fatalf("acme decides = %v, want 1", n)
	}
	if n := srv.m.tenantDecides("globex").Value(); n != 1 {
		t.Fatalf("globex decides = %v, want 1", n)
	}
	if n := srv.m.unauthorized.Value(); n != 2 {
		t.Fatalf("unauthorized = %v, want 2", n)
	}

	// Other routes stay tenancy-free: health is not behind the key wall.
	if code, _ := getJSON(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz behind api keys: HTTP %d", code)
	}
}

// TestTenantRateLimit: an exhausted token bucket answers 429 with the
// jittered Retry-After hint (retryAfterSeconds: an integer in
// [1, 3] seconds).
func TestTenantRateLimit(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		// Refill is ~one token per 1000s: the second request inside the
		// test must find the bucket dry.
		Tenants: []Tenant{{Name: "acme", Key: "k-acme", RatePerSec: 0.001, Burst: 1}},
	})

	do := func() *http.Response {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/decide", bytes.NewReader([]byte(testDecideBody)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", "k-acme")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := do(); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: HTTP %d, want 200", resp.StatusCode)
	}
	resp := do()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: HTTP %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if ra < 1 || ra > 3 {
		t.Fatalf("Retry-After = %d outside the jitter range [1, 3]", ra)
	}
	if n := srv.m.tenantThrottled("acme").Value(); n != 1 {
		t.Fatalf("throttled = %v, want 1", n)
	}
}

// TestConcurrentTenants runs keyed decides from two tenants at once, plus
// a few whose client gives up mid-flight, under -race: every request that
// is answered gets the deterministic decision, byte for byte.
func TestConcurrentTenants(t *testing.T) {
	_, plain := newTestServer(t, Config{})
	_, ts := newTestServer(t, Config{
		Tenants: []Tenant{
			{Name: "acme", Key: "k-acme"},
			{Name: "globex", Key: "k-globex"},
		},
	})

	code, want := postJSON(t, plain.URL+"/v1/decide", testDecideBody)
	if code != http.StatusOK {
		t.Fatalf("reference decide: HTTP %d: %s", code, want)
	}

	// decide posts one keyed decide; a transport error (the canceled
	// requests' expected outcome) returns it instead of a status.
	decide := func(ctx context.Context, key string) (int, []byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/decide", bytes.NewReader([]byte(testDecideBody)))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("X-API-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return 0, nil, err
		}
		return resp.StatusCode, buf.Bytes(), nil
	}

	keys := []string{"k-acme", "k-globex"}
	const perTenant = 12
	var wg sync.WaitGroup
	errs := make(chan error, 2*perTenant+4)
	for _, key := range keys {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(key string) {
				defer wg.Done()
				code, body, err := decide(context.Background(), key)
				switch {
				case err != nil:
					errs <- err
				case code != http.StatusOK:
					errs <- fmt.Errorf("tenant key %s: HTTP %d: %s", key, code, body)
				case !bytes.Equal(body, want):
					errs <- fmt.Errorf("tenant key %s diverged:\n%s", key, body)
				}
			}(key)
		}
	}
	// Requests canceled mid-flight, interleaved with the burst. One that
	// races its timeout and wins must still carry the reference answer.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			defer cancel()
			code, body, err := decide(ctx, "k-acme")
			if err == nil && (code != http.StatusOK || !bytes.Equal(body, want)) {
				errs <- fmt.Errorf("canceled request answered HTTP %d: %s", code, body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
