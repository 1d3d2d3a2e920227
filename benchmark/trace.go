package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"solarsched/internal/fault"
	"solarsched/internal/fleet"
	"solarsched/internal/obs"
	"solarsched/internal/sim"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent is the id of the span that caused it (0 for none);
// Ref carries the run or request id the span belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Ref    string `json:"ref,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until write. A nil *tracer records nothing,
// so untraced runs pass nil and pay one branch per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name, ref string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Ref: ref,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

// begin opens a span that finish closes and returns its id (0 on a nil
// tracer).
func (t *tracer) begin(name, ref string, parent int) int {
	now := time.Now()
	return t.add(name, ref, parent, now, now)
}

// finish closes the span begin opened.
func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
}

// timed runs fn inside a span and returns fn's error.
func (t *tracer) timed(name, ref string, parent int, fn func() error) error {
	start := time.Now()
	err := fn()
	t.add(name, ref, parent, start, time.Now())
	return err
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as one JSON document at path.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes maps each span id to its self time: the span's duration minus
// the part of its interval that its child spans cover. Overlapping
// children (concurrent work under one parent) are counted once.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of the child
// intervals spans, each child clipped to the parent.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// sumDur and sumSelf total the duration and the self time of every span
// named name.
func sumDur(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

func sumSelf(spans []span, self map[int]time.Duration, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += self[s.ID]
		}
	}
	return d
}

// timedPersister wraps the durable store under a fleet cache and counts
// and times every read and write that crosses it.
type timedPersister struct {
	inner                 fleet.Persister
	gets, getBytes, getNs atomic.Int64
	puts, putBytes, putNs atomic.Int64
}

func (p *timedPersister) Get(key string) ([]byte, error) {
	start := time.Now()
	data, err := p.inner.Get(key)
	p.getNs.Add(int64(time.Since(start)))
	p.gets.Add(1)
	p.getBytes.Add(int64(len(data)))
	return data, err
}

func (p *timedPersister) Put(key string, data []byte) error {
	start := time.Now()
	err := p.inner.Put(key, data)
	p.putNs.Add(int64(time.Since(start)))
	p.puts.Add(1)
	p.putBytes.Add(int64(len(data)))
	return err
}

// schedTimer accumulates the time one scheduler instance spends in its
// callbacks. Each instance drives exactly one run on one goroutine, so the
// fields need no synchronization until the fleet has returned.
type schedTimer struct {
	name           string
	beginNs        int64
	slotNs         int64
	periods, slots int64
}

// timedScheduler decorates a scheduler with a timer around each callback.
// It forwards every optional interface the engine probes for, so the run
// it drives is the same run the bare scheduler would produce:
// SetObserver and SetFaultInjector reach the inner scheduler only when it
// implements them, and a stateless inner scheduler snapshots to nil just
// as if the engine had found no Checkpointable. SpeedScheduler changes
// the engine's slot path, so only timedSpeedScheduler implements it.
type timedScheduler struct {
	inner sim.Scheduler
	t     *schedTimer
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) BeginPeriod(v *sim.PeriodView) sim.PeriodPlan {
	start := time.Now()
	p := s.inner.BeginPeriod(v)
	s.t.beginNs += int64(time.Since(start))
	s.t.periods++
	return p
}

func (s *timedScheduler) Slot(v *sim.SlotView) []int {
	start := time.Now()
	out := s.inner.Slot(v)
	s.t.slotNs += int64(time.Since(start))
	s.t.slots++
	return out
}

func (s *timedScheduler) SetObserver(reg *obs.Registry) {
	if o, ok := s.inner.(sim.Observable); ok {
		o.SetObserver(reg)
	}
}

func (s *timedScheduler) SetFaultInjector(inj *fault.Injector) {
	if fa, ok := s.inner.(sim.FaultAware); ok {
		fa.SetFaultInjector(inj)
	}
}

func (s *timedScheduler) SnapshotState() ([]byte, error) {
	if c, ok := s.inner.(sim.Checkpointable); ok {
		return c.SnapshotState()
	}
	return nil, nil
}

func (s *timedScheduler) RestoreState(data []byte) error {
	if c, ok := s.inner.(sim.Checkpointable); ok {
		return c.RestoreState(data)
	}
	return fmt.Errorf("scheduler %s has no state to restore", s.inner.Name())
}

type timedSpeedScheduler struct{ *timedScheduler }

func (s timedSpeedScheduler) Speeds(v *sim.SlotView, selected []int) []float64 {
	start := time.Now()
	out := s.inner.(sim.SpeedScheduler).Speeds(v, selected)
	s.t.slotNs += int64(time.Since(start))
	return out
}

// decorate wraps s with a timer, keeping its SpeedScheduler-ness.
func decorate(s sim.Scheduler, t *schedTimer) sim.Scheduler {
	ts := &timedScheduler{inner: s, t: t}
	if _, ok := s.(sim.SpeedScheduler); ok {
		return timedSpeedScheduler{ts}
	}
	return ts
}
