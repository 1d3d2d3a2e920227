package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"solarsched/internal/core"
	"solarsched/internal/fleet"
)

// cleanExit is solarschedd's exit code after a SIGTERM drain.
const cleanExit = 130

// daemon is a running solarschedd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once cmd.Wait has returned
}

// startDaemon execs bin on a free loopback port and waits until /readyz
// answers 200. Apart from the address, every flag keeps its default.
func startDaemon(bin string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read from cmd.ProcessState
		close(d.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-d.done:
			return nil, fmt.Errorf("daemon exited before ready: %v", cmd.ProcessState)
		default:
		}
		if resp, err := http.Get(d.base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("daemon not ready within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // the process may already be gone
	<-d.done
}

// stop drains the daemon with SIGTERM and reports an unclean exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal daemon: %w", err)
	}
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("daemon still running 60s after SIGTERM")
	}
	if code := d.cmd.ProcessState.ExitCode(); code != cleanExit {
		return fmt.Errorf("daemon exited with code %d after SIGTERM, want %d", code, cleanExit)
	}
	return nil
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// post sends one request body and returns the status and response body.
func post(ctx context.Context, c *http.Client, url, id string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func urlOf(base string, r request) string {
	if r.Run {
		return base + "/v1/runs?wait=1"
	}
	return base + "/v1/decide"
}

// outcome is what the load generator observed for one request.
type outcome struct {
	due, dispatched, sent, done time.Time
	status                      int
	body                        []byte
	err                         error
}

func (o outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// fire plays a schedule open loop against base: one dispatcher sleeps
// until each request is due and queues it for its class's sender. Decides and runs each have one sender with one keep-alive
// connection, two in all, as many as the host has cores; a shared queue
// would park decides behind run jobs on both connections. A request whose
// sender is still busy waits, and that wait counts in its latency, which
// runs from the due time.
func fire(ctx context.Context, base string, sched []request) []outcome {
	outs := make([]outcome, len(sched))
	// Buffered to the schedule size: the dispatcher must never block on a
	// busy sender, or it would stop being open loop.
	queues := [2]chan int{make(chan int, len(sched)), make(chan int, len(sched))}
	var wg sync.WaitGroup
	for _, q := range queues {
		client := &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for i := range q {
				o := &outs[i]
				o.sent = time.Now()
				o.status, o.body, o.err = post(ctx, client, urlOf(base, sched[i]), sched[i].ID, sched[i].Body)
				o.done = time.Now()
			}
		}()
	}
	start := time.Now()
	for i, r := range sched {
		outs[i].due = start.Add(r.Due)
		if d := time.Until(outs[i].due); d > 0 {
			time.Sleep(d)
		}
		outs[i].dispatched = time.Now()
		if r.Run {
			queues[1] <- i
		} else {
			queues[0] <- i
		}
	}
	close(queues[0])
	close(queues[1])
	wg.Wait()
	return outs
}

// window summarizes played schedules.
type window struct {
	decideMs, runMs []float64     // successful requests, from due time
	decideSentMs    []float64     // successful decides, from send time
	lagMs           []float64     // dispatcher lateness
	runBusy         time.Duration // summed send → done time of the run jobs
	failed          int
	wall            time.Duration
}

func (w *window) add(sched []request, outs []outcome) {
	var first, last time.Time
	for i, o := range outs {
		if i == 0 || o.due.Before(first) {
			first = o.due
		}
		if o.done.After(last) {
			last = o.done
		}
		w.lagMs = append(w.lagMs, ms(o.dispatched.Sub(o.due)))
		if sched[i].Run {
			w.runBusy += o.done.Sub(o.sent)
		}
		if !o.ok() {
			w.failed++
			continue
		}
		if sched[i].Run {
			w.runMs = append(w.runMs, ms(o.done.Sub(o.due)))
		} else {
			w.decideMs = append(w.decideMs, ms(o.done.Sub(o.due)))
			w.decideSentMs = append(w.decideSentMs, ms(o.done.Sub(o.sent)))
		}
	}
	w.wall += last.Sub(first)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// decideResponse mirrors the daemon's /v1/decide answer.
type decideResponse struct {
	Cap          int     `json:"cap"`
	Alpha        float64 `json:"alpha"`
	Stage        string  `json:"stage"`
	Te           []bool  `json:"te"`
	Switch       bool    `json:"switch"`
	Migrate      bool    `json:"migrate"`
	EThJoules    float64 `json:"eth_joules"`
	UsableJoules float64 `json:"usable_joules"`
}

// sameDecision reports whether the daemon's answer is bit-identical to an
// in-process decision.
func sameDecision(got decideResponse, want core.OnlineDecision) bool {
	stage := "inter"
	if want.Intra {
		stage = "intra"
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	return got.Cap == want.Cap && same(got.Alpha, want.Alpha) && got.Stage == stage &&
		slices.Equal(got.Te, want.Te) && got.Switch == want.Switch && got.Migrate == want.Migrate &&
		same(got.EThJoules, want.EThJoules) && same(got.UsableJoules, want.UsableJoules)
}

// jobStatus is the part of a synchronous /v1/runs answer the check reads.
type jobStatus struct {
	State  string `json:"state"`
	Report struct {
		AggregateDigest string `json:"aggregate_digest"`
	} `json:"report"`
}

// verify checks every successful answer of a played schedule against the
// program run in-process on the same inputs, outside the timed window:
// each decide against core.Decide on the same network, each run job's
// aggregate digest against fleet.Run of the same spec. It returns the
// number of mismatching answers and a description of the first.
func verify(ctx context.Context, cache *fleet.Cache, sched []request, outs []outcome) (int, string, error) {
	bad, first := 0, ""
	mismatch := func(format string, args ...any) {
		if bad == 0 {
			first = fmt.Sprintf(format, args...)
		}
		bad++
	}
	for i, r := range sched {
		o := outs[i]
		if !o.ok() {
			continue
		}
		if r.Run {
			var st jobStatus
			if err := json.Unmarshal(o.body, &st); err != nil {
				mismatch("run %s: %v", r.ID, err)
				continue
			}
			specs, err := r.Spec.Compile(nil)
			if err != nil {
				return 0, "", err
			}
			rep, err := fleet.Run(ctx, specs, fleet.Options{Cache: cache})
			if err != nil {
				return 0, "", err
			}
			if want := rep.AggregateDigest(); st.State != "done" || st.Report.AggregateDigest != want {
				mismatch("run %s: state %s digest %s, in-process %s", r.ID, st.State, st.Report.AggregateDigest, want)
			}
			continue
		}
		var got decideResponse
		if err := json.Unmarshal(o.body, &got); err != nil {
			mismatch("decide %s: %v", r.ID, err)
			continue
		}
		pc, net, err := fleet.NetworkFor(ctx, cache, nil, r.Config.Graph, r.Config.H, r.Config.Train)
		if err != nil {
			return 0, "", err
		}
		want, err := core.Decide(pc, net, r.Decide)
		if err != nil {
			return 0, "", err
		}
		if !sameDecision(got, want) {
			mismatch("decide %s: daemon %+v, in-process %+v", r.ID, got, want)
		}
	}
	return bad, first, nil
}

// scrape reads the daemon's Prometheus exposition into series → value.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	m := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}
