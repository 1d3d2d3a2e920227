package perfbench

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRunDecideBenchmark runs the cheapest real benchmark end to end:
// quick training through the shared cache, the decide loop, CPU+heap
// profiling and hot-frame attribution, and checks the snapshot shape the
// CLI serializes.
func TestRunDecideBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a network")
	}
	dir := t.TempDir()
	snap, err := Run(context.Background(), Config{
		Benchmarks:  []string{BenchDecide},
		DecideIters: 50,
		Top:         5,
		ProfileDir:  dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.SchemaVersion != SchemaVersion || snap.CreatedAt == "" {
		t.Fatalf("snapshot header malformed: %+v", snap)
	}
	if snap.Host.GoVersion == "" || snap.Host.NumCPU == 0 {
		t.Fatalf("host fingerprint missing: %+v", snap.Host)
	}
	if len(snap.Results) != 1 {
		t.Fatalf("got %d results, want 1 (decide only)", len(snap.Results))
	}
	r := snap.Results[0]
	if r.Name != BenchDecide || r.Iterations != 50 || r.NsPerOp <= 0 {
		t.Fatalf("decide result malformed: %+v", r)
	}
	if r.Extra["p99_ns"] < r.Extra["p50_ns"] {
		t.Fatalf("p99 < p50: %+v", r.Extra)
	}
	// 50 decides take far fewer than minCPUSamples profile samples, so
	// cpu_hot stays empty (TestProfiledCPUHotNeedsSamples covers it); the
	// heap attribution shows the profiling path works.
	if len(r.HeapHot) == 0 {
		t.Fatalf("no heap hot frames (profiling broken): %+v", r)
	}
	if len(r.CPUHot) > 5 || len(r.HeapHot) > 5 {
		t.Fatalf("Top=5 not honored: %d CPU and %d heap frames", len(r.CPUHot), len(r.HeapHot))
	}
	for _, suffix := range []string{"cpu", "heap"} {
		p := filepath.Join(dir, "decide_once_"+suffix+".pb.gz")
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("raw %s profile not kept at %s: %v", suffix, p, err)
		}
	}
}

var allocSink [][]byte

//go:noinline
func allocInFirst() [][]byte {
	out := make([][]byte, 256)
	for i := range out {
		out[i] = make([]byte, 64<<10)
	}
	return out
}

//go:noinline
func allocInSecond() [][]byte {
	out := make([][]byte, 256)
	for i := range out {
		out[i] = make([]byte, 64<<10)
	}
	return out
}

func names(frames []HotFrame) string {
	var out []string
	for _, f := range frames {
		out = append(out, f.Function)
	}
	return strings.Join(out, ", ")
}

// Each benchmark's heap attribution covers only what it allocated: the
// allocs profile counts from process start, so without the per-benchmark
// baseline the second benchmark would list the first one's allocations.
func TestProfiledHeapIsPerBenchmark(t *testing.T) {
	cfg := Config{Top: 50}
	run := func(name string, alloc func() [][]byte) BenchResult {
		res, err := profiled(context.Background(), cfg, name, func(context.Context) (BenchResult, error) {
			allocSink = alloc()
			return BenchResult{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		allocSink = nil
		return res
	}
	first := run("first", allocInFirst)
	second := run("second", allocInSecond)
	if !strings.Contains(names(first.HeapHot), ".allocInFirst") {
		t.Errorf("first benchmark's heap attribution misses its helper: %s", names(first.HeapHot))
	}
	got := names(second.HeapHot)
	if !strings.Contains(got, ".allocInSecond") {
		t.Errorf("second benchmark's heap attribution misses its helper: %s", got)
	}
	if strings.Contains(got, ".allocInFirst") {
		t.Errorf("second benchmark's heap attribution names the first one's helper: %s", got)
	}
}

// cpu_hot is published only from minCPUSamples samples or more.
func TestProfiledCPUHotNeedsSamples(t *testing.T) {
	spin := func(d time.Duration) func(context.Context) (BenchResult, error) {
		return func(context.Context) (BenchResult, error) {
			sink := 0.0
			for start := time.Now(); time.Since(start) < d; {
				sink += spinWork(10_000)
			}
			if sink == 0 {
				t.Error("work optimized away")
			}
			return BenchResult{}, nil
		}
	}
	short, err := profiled(context.Background(), Config{Top: 5}, "short", spin(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if len(short.CPUHot) != 0 {
		t.Errorf("cpu_hot published from a 20 ms profile: %s", names(short.CPUHot))
	}
	long, err := profiled(context.Background(), Config{Top: 5}, "long", spin(1500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(names(long.CPUHot), ".spinWork") {
		t.Errorf("1.5 s of spinning: cpu_hot %s, want spinWork", names(long.CPUHot))
	}
}
