package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"solarsched/internal/fleet"
)

// testCache is shared across the package's tests so the offline stages
// (sizing, teacher, DBN training) run once, exactly like a long-lived
// daemon process.
var testCache = fleet.NewCache(nil)

// testSpec is a cheap three-run fleet: two baselines plus the proposed
// scheduler, tiny trace and training budget.
const testSpec = `{
  "defaults": {
    "trace": {"kind": "gen", "days": 2, "seed": 31},
    "h": 2,
    "train": {"days": 2, "seed": 777, "day_of_year": 80, "fine_epochs": 10}
  },
  "runs": [
    {"graph": "wam", "scheduler": "inter"},
    {"graph": "wam", "scheduler": "intra"},
    {"graph": "wam", "scheduler": "proposed"}
  ]
}`

// reportWire mirrors the fields of the serialized fleet report the tests
// care about.
type reportWire struct {
	AggregateDigest string `json:"aggregate_digest"`
	CacheHits       int64  `json:"cache_hits"`
	CacheMisses     int64  `json:"cache_misses"`
	Runs            []struct {
		ID     string `json:"id"`
		Digest string `json:"digest"`
		Error  string `json:"error"`
	} `json:"runs"`
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Cache == nil && cfg.Store == nil {
		cfg.Cache = testCache
	}
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, b
}

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, b
}

func decodeStatus(t *testing.T, b []byte) (status, reportWire) {
	t.Helper()
	var st status
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("decoding status: %v\n%s", err, b)
	}
	var rep reportWire
	if len(st.Report) > 0 {
		if err := json.Unmarshal(st.Report, &rep); err != nil {
			t.Fatalf("decoding report: %v", err)
		}
	}
	return st, rep
}

// waitTerminal polls the status endpoint until the job is terminal.
func waitTerminal(t *testing.T, base, id string, within time.Duration) (status, reportWire) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		code, b := getJSON(t, base+"/v1/runs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d: %s", id, code, b)
		}
		st, rep := decodeStatus(t, b)
		if st.State.Terminal() {
			return st, rep
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, within)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWarmResubmit is the service's reason to exist: the second identical
// submission must produce a bit-identical aggregate digest from an almost
// entirely warm cache.
func TestWarmResubmit(t *testing.T) {
	ckptDir := t.TempDir()
	_, ts := newTestServer(t, Config{CheckpointDir: ckptDir})

	code, b1 := postJSON(t, ts.URL+"/v1/runs?wait=1", testSpec)
	if code != http.StatusOK {
		t.Fatalf("first submit: HTTP %d: %s", code, b1)
	}
	st1, rep1 := decodeStatus(t, b1)
	if st1.State != StateDone {
		t.Fatalf("first job state = %s (err %q), want done", st1.State, st1.Error)
	}
	if rep1.AggregateDigest == "" || len(rep1.Runs) != 3 {
		t.Fatalf("first report malformed: %+v", rep1)
	}

	code, b2 := postJSON(t, ts.URL+"/v1/runs?wait=1", testSpec)
	if code != http.StatusOK {
		t.Fatalf("second submit: HTTP %d: %s", code, b2)
	}
	st2, rep2 := decodeStatus(t, b2)
	if st2.State != StateDone {
		t.Fatalf("second job state = %s, want done", st2.State)
	}
	if rep2.AggregateDigest != rep1.AggregateDigest {
		t.Fatalf("aggregate digests differ: %s vs %s", rep1.AggregateDigest, rep2.AggregateDigest)
	}
	total := rep2.CacheHits + rep2.CacheMisses
	if total == 0 {
		t.Fatal("second report has no cache activity recorded")
	}
	if rate := float64(rep2.CacheHits) / float64(total); rate < 0.8 {
		t.Fatalf("second submission cache hit rate = %.2f (hits %d, misses %d), want >= 0.8",
			rate, rep2.CacheHits, rep2.CacheMisses)
	}

	// The checkpoint directory must hold per-(job, run) stores — the
	// resumable state a drained daemon leaves behind.
	ckpts, err := filepath.Glob(filepath.Join(ckptDir, "*.ckpt"))
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no checkpoints written under %s (err %v)", ckptDir, err)
	}
}

// TestDeadlineCancel submits a job whose deadline cannot be met and
// checks it terminates promptly as canceled with ErrCanceled reported.
func TestDeadlineCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	spec := `{
	  "timeout_ms": 1,
	  "defaults": {"trace": {"kind": "gen", "days": 120, "seed": 31}, "h": 2,
	    "train": {"days": 2, "seed": 777, "day_of_year": 80, "fine_epochs": 10}},
	  "runs": [{"graph": "wam", "scheduler": "inter"}]
	}`
	start := time.Now()
	code, b := postJSON(t, ts.URL+"/v1/runs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, b)
	}
	var ack submitResponse
	if err := json.Unmarshal(b, &ack); err != nil {
		t.Fatalf("decoding ack: %v", err)
	}
	st, _ := waitTerminal(t, ts.URL, ack.ID, 15*time.Second)
	if st.State != StateCanceled {
		t.Fatalf("job state = %s (err %q), want canceled", st.State, st.Error)
	}
	// Depending on where the deadline lands (artifact wait vs engine
	// loop) the chain spells it ErrCanceled or DeadlineExceeded.
	if !strings.Contains(st.Error, "canceled") && !strings.Contains(st.Error, "deadline exceeded") {
		t.Fatalf("job error %q does not report cancellation", st.Error)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline-expired job took %v to settle", elapsed)
	}
}

// TestQueueOverflow fills the admission queue with no executor draining
// it and checks the daemon answers 429 + Retry-After, then that Shutdown
// releases the queued jobs as canceled.
func TestQueueOverflow(t *testing.T) {
	s := New(Config{QueueDepth: 2})
	// Mark the daemon ready without launching the executor: the queue
	// deterministically stays full.
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 2; i++ {
		code, b := postJSON(t, ts.URL+"/v1/runs", testSpec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d: %s", i, code, b)
		}
		var ack submitResponse
		if err := json.Unmarshal(b, &ack); err != nil {
			t.Fatalf("decoding ack: %v", err)
		}
		ids = append(ids, ack.ID)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatalf("overflow submit: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: HTTP %d: %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}

	// Drain: the un-started shutdown path must settle the queued jobs.
	s.mu.Lock()
	s.started = false
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, id := range ids {
		code, b := getJSON(t, ts.URL+"/v1/runs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		st, _ := decodeStatus(t, b)
		if st.State != StateCanceled {
			t.Fatalf("drained job %s state = %s, want canceled", id, st.State)
		}
	}
}

// TestStream checks the SSE endpoint replays a finished job's decision
// stream: per-period events, one result per run, and a final done event
// carrying the aggregate digest.
func TestStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, b := postJSON(t, ts.URL+"/v1/runs?wait=1", testSpec)
	if code != http.StatusOK {
		t.Fatalf("submit: HTTP %d: %s", code, b)
	}
	st, rep := decodeStatus(t, b)
	if st.State != StateDone {
		t.Fatalf("job state = %s, want done", st.State)
	}

	resp, err := http.Get(ts.URL + "/v1/runs/" + st.ID + "/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body) // hub is closed: replay then EOF
	if err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	var periods, results int
	var done *Event
	for _, chunk := range bytes.Split(raw, []byte("\n\n")) {
		_, data, ok := bytes.Cut(chunk, []byte("data: "))
		if !ok {
			continue
		}
		var e Event
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("decoding event %q: %v", data, err)
		}
		switch e.Type {
		case "period":
			periods++
		case "result":
			results++
		case "done":
			done = &e
		}
	}
	if periods == 0 {
		t.Fatal("stream replayed no period events")
	}
	if results != 3 {
		t.Fatalf("stream replayed %d result events, want 3", results)
	}
	if done == nil || done.State != string(StateDone) {
		t.Fatalf("stream done event = %+v", done)
	}
	if done.Digest != rep.AggregateDigest {
		t.Fatalf("done event digest %s != report digest %s", done.Digest, rep.AggregateDigest)
	}
}

// TestHealthReadyMetrics covers the probe endpoints and the Prometheus
// exposition.
func TestHealthReadyMetrics(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := getJSON(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	if code, _ := getJSON(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before Start: HTTP %d, want 503", code)
	}
	if code, b := postJSON(t, ts.URL+"/v1/runs", testSpec); code != http.StatusServiceUnavailable {
		t.Fatalf("submit before Start: HTTP %d: %s, want 503", code, b)
	}
	s.Start()
	if code, _ := getJSON(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after Start: HTTP %d", code)
	}
	code, b := getJSON(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	for _, want := range []string{"serve_http_requests_total", `route="GET /healthz"`} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("metrics output missing %q:\n%s", want, b)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code, _ := getJSON(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: HTTP %d, want 503", code)
	}
}

// A negative count is a 400 at submission, never a job that panics in
// capacitor sizing after it has started.
func TestNegativeCountsRejectedAtSubmission(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"runs": [{"id": "neg-h", "scheduler": "proposed", "h": -3}]}`,
		`{"runs": [{"id": "neg-epochs", "train": {"fine_epochs": -1}}]}`,
	} {
		code, b := postJSON(t, ts.URL+"/v1/runs", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d: %s, want 400", body, code, b)
			continue
		}
		if !strings.Contains(string(b), "run neg-") {
			t.Errorf("%s: answer %s does not name the run", body, b)
		}
	}
}

// TestBadRequests covers spec validation surface.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cases := []struct {
		name, body string
	}{
		{"empty", `{}`},
		{"unknown field", `{"bogus": 1}`},
		{"unknown scheduler", `{"runs": [{"graph": "wam", "scheduler": "magic"}]}`},
		{"unknown graph", `{"runs": [{"graph": "nope"}]}`},
		{"malformed", `{"runs": [`},
	}
	for _, tc := range cases {
		if code, b := postJSON(t, ts.URL+"/v1/runs", tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d: %s, want 400", tc.name, code, b)
		}
	}
	if code, _ := getJSON(t, ts.URL+"/v1/runs/j999999"); code != http.StatusNotFound {
		t.Errorf("unknown id: HTTP %d, want 404", code)
	}
}

// TestDecide covers the one-shot online inference endpoint: validity,
// determinism, and input validation.
func TestDecide(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	body := `{
	  "graph": "wam", "h": 2,
	  "train": {"days": 2, "seed": 777, "day_of_year": 80, "fine_epochs": 10},
	  "voltages": [3.0, 1.2],
	  "period_of_day": 0,
	  "active_cap": 0
	}`
	code, b1 := postJSON(t, ts.URL+"/v1/decide", body)
	if code != http.StatusOK {
		t.Fatalf("decide: HTTP %d: %s", code, b1)
	}
	var d1 decideResponse
	if err := json.Unmarshal(b1, &d1); err != nil {
		t.Fatalf("decoding decision: %v", err)
	}
	if d1.Cap < 0 || d1.Cap >= 2 {
		t.Fatalf("decision cap = %d outside bank of 2", d1.Cap)
	}
	if d1.Stage != "intra" && d1.Stage != "inter" {
		t.Fatalf("decision stage = %q", d1.Stage)
	}
	if len(d1.Te) == 0 {
		t.Fatal("decision has empty te set")
	}
	if d1.EThJoules <= 0 || d1.UsableJoules < 0 {
		t.Fatalf("decision energies: eth %g usable %g", d1.EThJoules, d1.UsableJoules)
	}

	// Same inputs, same trained network → identical decision.
	code, b2 := postJSON(t, ts.URL+"/v1/decide", body)
	if code != http.StatusOK {
		t.Fatalf("second decide: HTTP %d: %s", code, b2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("decide is not deterministic:\n%s\nvs\n%s", b1, b2)
	}

	bad := []string{
		`{"graph": "wam", "h": 2, "voltages": [3.0], "active_cap": 0}`,
		`{"graph": "nope", "voltages": [3.0, 1.2]}`,
		`{"graph": "wam", "h": 2, "voltages": [3.0, 1.2], "active_cap": 7}`,
	}
	for _, body := range bad {
		if code, b := postJSON(t, ts.URL+"/v1/decide", body); code != http.StatusBadRequest {
			t.Errorf("bad decide %s: HTTP %d: %s, want 400", body, code, b)
		}
	}
}

// TestCancelEndpoint cancels a running job via DELETE and checks it
// settles as canceled.
func TestCancelEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	spec := `{
	  "defaults": {"trace": {"kind": "gen", "days": 200, "seed": 31}, "h": 2,
	    "train": {"days": 2, "seed": 777, "day_of_year": 80, "fine_epochs": 10}},
	  "runs": [{"graph": "wam", "scheduler": "inter"}]
	}`
	code, b := postJSON(t, ts.URL+"/v1/runs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, b)
	}
	var ack submitResponse
	if err := json.Unmarshal(b, &ack); err != nil {
		t.Fatalf("decoding ack: %v", err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+ack.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d", resp.StatusCode)
	}
	st, _ := waitTerminal(t, ts.URL, ack.ID, 15*time.Second)
	if st.State != StateCanceled {
		t.Fatalf("job state after DELETE = %s, want canceled", st.State)
	}
}

// A value JSON cannot represent answers 500 with a JSON error body, never
// the intended status with an empty body; an encodable value keeps its
// exact bytes: two-space indent and a trailing newline.
func TestWriteJSONNonFiniteValue(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, struct {
		Value float64 `json:"value"`
	}{math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("NaN field: status %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("NaN field: Content-Type %q", ct)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body["error"], "NaN") {
		t.Fatalf("NaN field: body %q (%v), want a JSON error naming the value", rec.Body.String(), err)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusAccepted, map[string]any{"id": "j1", "n": 2})
	if want := "{\n  \"id\": \"j1\",\n  \"n\": 2\n}\n"; rec.Code != http.StatusAccepted || rec.Body.String() != want {
		t.Fatalf("encodable value: status %d body %q, want 202 and %q", rec.Code, rec.Body.String(), want)
	}
}
