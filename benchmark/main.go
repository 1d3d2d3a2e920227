// Command benchmark measures solarsched end to end on one seeded workload
// and prints the result as one JSON line. It is normally started by
// run.py, which builds it and solarschedd from this checkout first:
//
//	python3 benchmark/run.py --workload offline_cold --seed 1 --seconds 45 --trace 0
//
// Every workload runs the same three phases over inputs drawn from the
// seed, in the order a deployment meets them:
//
//  1. offline: resolve each trained DBN configuration cold through a fresh
//     durable store (trace, sizing, DP teacher, training), then reopen the
//     store, verify it and resolve everything again from disk;
//  2. sweep: fleet.Run of the Fig. 8/9 style sweep over the warm cache;
//  3. serve: a fresh solarschedd, started and warmed, then driven open
//     loop with decides and synchronous run jobs and stopped with SIGTERM.
//
// The workloads differ in which phase gets the time and in how many
// configurations the offline phase resolves, so each stresses its own
// layers while every end-to-end metric stays defined on all of them.
// See METRICS.md for the metrics and the layers behind them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// workload is one input mix: how the run's time splits over the phases.
type workload struct {
	name string
	// coldConfigs makes the offline phase time coldConfigs instead of
	// quickConfigs.
	coldConfigs bool
	// offline, sweep and serve are the shares of --seconds each phase
	// measures for, spread over the rounds. Every round runs at least one
	// offline cycle and one sweep rep.
	offline, sweep, serve float64
	// daemonRSS makes peak_rss_mb the median of the round daemons' peaks
	// rather than this process's peak.
	daemonRSS bool
}

var workloads = []workload{
	{name: "offline_cold", coldConfigs: true, offline: 0.45, sweep: 0.15, serve: 0.35},
	{name: "serve_mixed", offline: 0.1, sweep: 0.15, serve: 0.65, daemonRSS: true},
}

// defaultSeed is the seed the golden digests were recorded with.
const defaultSeed = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// The in-process phases run on one P. On a small shared host a second
	// P mostly adds noise: the same single-threaded offline pass varied
	// three times as much run to run with GOMAXPROCS=2 as with 1, from
	// GC workers and cross-core effects on the second vCPU. The daemon
	// keeps its default.
	runtime.GOMAXPROCS(1)
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: offline_cold or serve_mixed")
	seed := flag.Uint64("seed", defaultSeed, "seed every input is drawn from")
	seconds := flag.Float64("seconds", 45, "seconds the run measures for")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	execNs := flag.Int64("exec-ns", 0, "wall-clock time this process was exec'd, in Unix ns (0: now)")
	daemonBin := flag.String("daemon", "", "path of the solarschedd binary")
	outDir := flag.String("out", ".bench_out", "directory for stores and span files")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	case *daemonBin == "":
		fmt.Fprintln(os.Stderr, "benchmark: -daemon is required")
		return 2
	case *seconds <= 0 || (*trace != 0 && *trace != 1):
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	execAt := time.Now()
	if *execNs != 0 {
		execAt = time.Unix(0, *execNs)
	}
	dir := filepath.Join(*outDir, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{
		w: *w, seed: *seed, seconds: *seconds, traced: *trace == 1,
		daemonBin: *daemonBin, dir: dir, execAt: execAt, ctx: context.Background(),
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		b.interrupted()
		os.RemoveAll(dir)
		os.Exit(1)
	}()
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if b.traced {
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing spans:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}
