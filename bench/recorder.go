package main

import (
	"runtime"
	"syscall"
	"time"
)

// recorder collects one goroutine's timed operations: a latency
// histogram, per-second completion counts, and attempt/failure tallies.
// Each client goroutine owns one; they are merged after the phase.
type recorder struct {
	t0      time.Time
	hist    *latencyHist
	windows []int64
	// units counts completed work in the workload's throughput unit
	// (requests, solves, rack-epochs).
	units     int64
	attempted int64
	failed    int64
	last      time.Time
}

func newRecorder(t0 time.Time, d time.Duration) *recorder {
	return &recorder{
		t0:      t0,
		hist:    newLatencyHist(),
		windows: make([]int64, int(d/time.Second)+2),
	}
}

// done records one operation that ran from start to end and completed
// units of throughput work.
func (r *recorder) done(start, end time.Time, units int64) {
	r.hist.add(end.Sub(start))
	if w := int(end.Sub(r.t0) / time.Second); w >= 0 && w < len(r.windows) {
		r.windows[w] += units
	}
	r.units += units
	if end.After(r.last) {
		r.last = end
	}
}

func (r *recorder) merge(o *recorder) {
	r.hist.merge(o.hist)
	for i := range r.windows {
		r.windows[i] += o.windows[i]
	}
	r.units += o.units
	r.attempted += o.attempted
	r.failed += o.failed
	if o.last.After(r.last) {
		r.last = o.last
	}
}

func (r *recorder) elapsed() time.Duration { return r.last.Sub(r.t0) }

// rate is the phase's throughput: the median of one-second windows.
func (r *recorder) rate() float64 { return windowRate(r.windows, r.elapsed()) }

// resources is a snapshot of the process's CPU time, allocation and GC
// counters, taken around a timed phase.
type resources struct {
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func readResources() resources {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resources{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gcs:   ms.NumGC,
	}
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}
