package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"time"
)

// The in-process throughput metrics (offline_s, restart_s, periods_per_s)
// and setup_s are reported in reference time: each measured unit (a cold
// pass's configuration, a restart pass, a sweep rep, a set-up step or a
// daemon start) is scaled by refNominal over the time a fixed kernel,
// refKernel, took right before and right after it. On the small shared
// hosts this benchmark was tuned on, one core's speed swings by up to 2x
// for seconds at a time, and a run cannot wait that out. The swings hit
// memory-bound code hardest (a register-only loop slowed 1.26x, a table
// recurrence 1.77x), so the kernel is the allocation and pointer-chasing
// work the program's hot paths are made of. Over two minutes of
// alternating units on a 2-vCPU VM, a warm 36-run sweep spread 0.41-0.66
// (quartile distance over median) and its ratio to this kernel 0.06-0.15;
// a kernel that also spent a third of its time in math.Sin and a sort
// gave 0.17-0.19. The kernel is part of the benchmark, not of the
// program, so only a change to the program moves a scaled time.
// host.ref_ms reports the kernel's median time, from which the raw times
// follow.
//
// The kernel runs in the program's own heap, so each sample is taken
// between forced collections, outside every timed and MemStats window,
// with the collector off while it runs, and after one untimed run that
// faults in the memory the timed run then reuses. So the kernel never
// pays the sweep or assist debt of the garbage the unit before it left;
// its time does not follow the program's live heap (with the collector
// on, a kernel of half this size ran about 20% slower over a 2 MB live
// heap than over a 60 MB one) or how much memory the runtime had returned
// to the OS (without the untimed run, samples took up to 2,500 page
// faults, about 10 ms); and the unit after it never pays for the kernel's
// garbage. host.raw_* report the unscaled times next to the scaled ones.
//
// refNominal is the kernel's time on a quiet 2-vCPU host of the kind the
// benchmark was tuned on; it only sets the scale.
const refNominal = 12 * time.Millisecond

var refSink float64

type refNode struct {
	next *refNode
	v    float64
	buf  []float64
}

// refKernel times a fixed mix of the work the program does most: small
// allocations, pointer chasing, floating-point math and map updates.
func refKernel() time.Duration {
	start := time.Now()
	var head *refNode
	for i := 0; i < 160000; i++ {
		head = &refNode{next: head, v: float64(i), buf: make([]float64, 4)}
	}
	m := make(map[int]float64)
	x := 0.0
	for n, i := head, 0; n != nil; n, i = n.next, i+1 {
		n.buf[i&3] = math.Sqrt(n.v)
		x += n.buf[i&3]
		if i%7 == 0 {
			m[i%4096] += x
		}
	}
	refSink += x + m[0]
	return time.Since(start)
}

// hostRef keeps every kernel time of a run.
type hostRef struct{ samples []float64 }

// sample times the kernel once, on a fully swept heap, with its memory
// already faulted in and the collector off, and collects its garbage
// before returning.
func (h *hostRef) sample() time.Duration {
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	refKernel()
	runtime.GC()
	d := refKernel()
	debug.SetGCPercent(gcPercent)
	runtime.GC()
	h.samples = append(h.samples, float64(d))
	return d
}

// scale returns the factor that turns a time measured between two kernel
// samples into reference time.
func scale(before, after time.Duration) float64 {
	return 2 * float64(refNominal) / float64(before+after)
}
