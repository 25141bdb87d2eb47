package main

import (
	"math"
	"slices"
	"time"
)

// minTail is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a p99 needs about 1000
// samples.
const minTail = 10

// rankOf returns the nearest-rank index of quantile q among n sorted
// samples, and whether at least minTail samples lie beyond it.
func rankOf(q float64, n int) (int, bool) {
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	return idx, n-1-idx >= minTail
}

// percentile returns the q-quantile of sorted samples under the
// percentile rule; ok is false when too few samples lie beyond it.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	idx, ok := rankOf(q, len(sorted))
	if !ok {
		return 0, false
	}
	return sorted[idx], true
}

// Histogram geometry: log-spaced buckets 0.5% wide from 100 ns to about
// 20 minutes.
const (
	histMinNS   = 100.0
	histGrowth  = 1.005
	histBuckets = 4700
)

var histLogGrowth = math.Log(histGrowth)

// latencyHist records durations in log-spaced buckets. A timed run keeps
// one per client instead of raw samples, so the benchmark's own memory
// does not grow with throughput and max_rss_mb measures the program.
// Quantiles interpolate inside the bucket, which bounds their error by
// the bucket width.
type latencyHist struct {
	counts []int64
	n      int64
	sumNS  float64
}

func newLatencyHist() *latencyHist {
	return &latencyHist{counts: make([]int64, histBuckets)}
}

func (h *latencyHist) add(d time.Duration) {
	ns := float64(d)
	b := 0
	if ns > histMinNS {
		b = min(int(math.Log(ns/histMinNS)/histLogGrowth), histBuckets-1)
	}
	h.counts[b]++
	h.n++
	h.sumNS += ns
}

func (h *latencyHist) merge(o *latencyHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sumNS += o.sumNS
}

// quantileNS returns the q-quantile in nanoseconds under the percentile
// rule.
func (h *latencyHist) quantileNS(q float64) (float64, bool) {
	idx, ok := rankOf(q, int(h.n))
	if !ok {
		return 0, false
	}
	var below int64
	for b, c := range h.counts {
		if c == 0 || below+c <= int64(idx) {
			below += c
			continue
		}
		frac := (float64(int64(idx)-below) + 0.5) / float64(c)
		lo := 0.0
		if b > 0 {
			lo = histMinNS * math.Exp(float64(b)*histLogGrowth)
		}
		hi := histMinNS * math.Exp(float64(b+1)*histLogGrowth)
		return lo + frac*(hi-lo), true
	}
	return 0, false
}

// windowRate returns the median number of operations completed per
// one-second window. counts[k] holds the operations that completed in
// [k s, (k+1) s) after the timed phase began; only the full windows of
// elapsed count. A phase shorter than one window reports its mean rate.
func windowRate(counts []int64, elapsed time.Duration) float64 {
	full := min(int(elapsed/time.Second), len(counts))
	if full == 0 {
		var total int64
		for _, c := range counts {
			total += c
		}
		if elapsed <= 0 {
			return 0
		}
		return float64(total) / elapsed.Seconds()
	}
	rates := make([]float64, full)
	for i := range rates {
		rates[i] = float64(counts[i])
	}
	return median(rates)
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for none. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method of Python's statistics.quantiles(xs, n=4), so spreads
// computed here match ones computed from the same values there.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	data := slices.Clone(xs)
	slices.Sort(data)
	ld := len(data)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return data[0], data[0], data[0]
	}
	var out [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, ld-1))
		delta := i*m - j*4
		out[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}
