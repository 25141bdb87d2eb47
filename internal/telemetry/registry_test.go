package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"sync"
	"testing"
)

func TestNilRegistryIsDisabledSink(t *testing.T) {
	var r *Registry
	// Every operation on a nil registry and its nil instruments must
	// no-op without panicking.
	r.Counter("a").Inc()
	r.Counter("a").Add(5)
	r.Gauge("b").Set(1.5)
	r.Histogram("c", LinearBuckets(0, 1, 4)).Observe(2)
	if got := r.Counter("a").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	if got := r.Gauge("b").Value(); got != 0 {
		t.Errorf("nil gauge value = %v", got)
	}
	if got := r.Histogram("c", nil).Snapshot().Count; got != 0 {
		t.Errorf("nil histogram count = %d", got)
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
	if r.String() != "telemetry: disabled" {
		t.Errorf("nil registry String = %q", r.String())
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sim.epochs")
	c.Inc()
	c.Add(9)
	c.Add(-5) // negative deltas ignored: counters are monotone
	if c.Value() != 10 {
		t.Errorf("counter = %d, want 10", c.Value())
	}
	if r.Counter("sim.epochs") != c {
		t.Error("same name should return the same counter")
	}
	g := r.Gauge("solver.residual")
	g.Set(0.25)
	g.Set(1e-9)
	if g.Value() != 1e-9 {
		t.Errorf("gauge = %v", g.Value())
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum != 106 {
		t.Errorf("sum = %v", s.Sum)
	}
	if s.Min != 0.5 || s.Max != 100 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	wantCounts := []int64{2, 1, 1, 1} // <=1, <=2, <=4, overflow
	if len(s.Buckets) != len(wantCounts) {
		t.Fatalf("got %d buckets", len(s.Buckets))
	}
	for i, want := range wantCounts {
		if s.Buckets[i].Count != want {
			t.Errorf("bucket %d count = %d, want %d", i, s.Buckets[i].Count, want)
		}
	}
	if !math.IsInf(s.Buckets[3].Le, 1) {
		t.Errorf("overflow bucket Le = %v", s.Buckets[3].Le)
	}
}

func TestHistogramNoBoundsTracksMoments(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x", nil)
	h.Observe(2)
	h.Observe(4)
	s := h.Snapshot()
	if s.Count != 2 || s.Mean != 3 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(0, 100, 3)
	if len(lin) != 3 || lin[0] != 0 || lin[2] != 200 {
		t.Errorf("linear buckets = %v", lin)
	}
	exp := ExponentialBuckets(0.001, 10, 3)
	if len(exp) != 3 || exp[2] != 0.1 {
		t.Errorf("exponential buckets = %v", exp)
	}
	if LinearBuckets(0, 0, 3) != nil || ExponentialBuckets(0, 2, 3) != nil {
		t.Error("invalid bucket specs should return nil")
	}
}

func TestSnapshotJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("power.trips").Add(3)
	r.Gauge("power.ptrip").Set(0.125)
	r.Histogram("coord.request_latency_s", ExponentialBuckets(0.001, 10, 4)).Observe(0.02)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v\n%s", err, buf.String())
	}
	if s.Counters["power.trips"] != 3 {
		t.Errorf("counters = %v", s.Counters)
	}
	if s.Gauges["power.ptrip"] != 0.125 {
		t.Errorf("gauges = %v", s.Gauges)
	}
	if h := s.Histograms["coord.request_latency_s"]; h.Count != 1 {
		t.Errorf("histogram = %+v", h)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", LatencyBuckets())
	// 1..1000 ms: the q-quantile of the underlying data is ~q seconds.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 0.500}, {0.90, 0.900}, {0.99, 0.990}, {0.999, 0.999},
	} {
		got := h.Snapshot().Quantile(tc.q)
		// Interpolation error is bounded by one bucket width (factor 1.25).
		if got < tc.want/1.25 || got > tc.want*1.25 {
			t.Errorf("Quantile(%v) = %v, want ~%v", tc.q, got, tc.want)
		}
	}
	if got := h.Snapshot().Quantile(0); got < 0.001/1.25 || got > 0.00125 {
		t.Errorf("Quantile(0) = %v, want ~min", got)
	}
	if got := h.Snapshot().Quantile(1); got != 1.0 {
		t.Errorf("Quantile(1) = %v, want max 1.0", got)
	}
	// Out-of-range q clamps; empty histogram reports 0.
	if h.Snapshot().Quantile(2) != h.Snapshot().Quantile(1) {
		t.Error("q > 1 should clamp to the max quantile")
	}
	if got := r.Histogram("empty", nil).Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v", got)
	}
	var nilH *Histogram
	if got := nilH.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("nil Quantile = %v", got)
	}
}

func TestHistogramQuantileSingleObservation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("one", LatencyBuckets())
	h.Observe(0.25)
	for _, q := range []float64{0, 0.5, 0.999, 1} {
		if got := h.Snapshot().Quantile(q); got != 0.25 {
			t.Errorf("Quantile(%v) = %v, want exactly 0.25 (clamped to [min,max])", q, got)
		}
	}
}

// TestHistogramObserveLockFreeRace hammers one histogram from many
// goroutines while snapshotting, asserting the lock-free Observe keeps
// Snapshot internally consistent: Count always equals the bucket total,
// and never exceeds the number of completed observations. Run under
// -race by scripts/check.sh.
func TestHistogramObserveLockFreeRace(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hot", LinearBuckets(0, 10, 8))
	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64((g*perG + i) % 100))
			}
		}(g)
	}
	// Buffered for every snapshot: nothing drains the channel until the
	// snapshotter is done, so a smaller buffer would block it forever.
	const snapshotCount = 200
	snapshots := make(chan HistogramSnapshot, snapshotCount)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < snapshotCount; i++ {
			snapshots <- h.Snapshot()
		}
		close(snapshots)
	}()
	wg.Wait()
	<-done
	for s := range snapshots {
		var bucketTotal int64
		for _, b := range s.Buckets {
			bucketTotal += b.Count
		}
		if s.Count != bucketTotal {
			t.Fatalf("snapshot count %d != bucket total %d", s.Count, bucketTotal)
		}
		if s.Count > goroutines*perG {
			t.Fatalf("snapshot count %d exceeds observations", s.Count)
		}
	}
	final := h.Snapshot()
	if final.Count != goroutines*perG {
		t.Fatalf("final count = %d, want %d", final.Count, goroutines*perG)
	}
	wantSum := 0.0
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			wantSum += float64((g*perG + i) % 100)
		}
	}
	if math.Abs(final.Sum-wantSum) > 1e-6*wantSum {
		t.Errorf("final sum = %v, want %v", final.Sum, wantSum)
	}
	if final.Min != 0 || final.Max != 99 {
		t.Errorf("min/max = %v/%v, want 0/99", final.Min, final.Max)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	// Exercised under -race by scripts/check.sh: hammer one registry from
	// many goroutines while snapshotting.
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(j))
				r.Histogram("h", LinearBuckets(0, 100, 10)).Observe(float64(j))
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got := r.Counter("c").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", nil).Snapshot().Count; got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestHistogramQuantilesBatch(t *testing.T) {
	h := NewRegistry().Histogram("q", LinearBuckets(0, 10, 11))
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i % 100))
	}
	// Quantiles read from one snapshot are consistent with each other:
	// monotone in q, and each within a bucket width of the data's.
	s := h.Snapshot()
	var qs []float64
	for _, tc := range []struct{ q, want float64 }{{0.5, 49.5}, {0.9, 89.5}, {0.99, 98.5}} {
		got := s.Quantile(tc.q)
		if math.Abs(got-tc.want) > 10 {
			t.Errorf("Quantile(%g) = %g, want ~%g", tc.q, got, tc.want)
		}
		qs = append(qs, got)
	}
	if !sort.Float64sAreSorted(qs) {
		t.Errorf("quantiles not monotone: %v", qs)
	}
}

// TestHistogramSnapshotNeverSeesSentinels: a snapshot racing a
// histogram's first Observe either misses the observation or sees its
// min and max — never a count with the ±Inf sentinels, which would make
// the /metrics JSON encoding fail.
func TestHistogramSnapshotNeverSeesSentinels(t *testing.T) {
	for i := 0; i < 2000; i++ {
		h := NewRegistry().Histogram("h", nil)
		done := make(chan struct{})
		go func() {
			h.Observe(1)
			close(done)
		}()
		for {
			s := h.Snapshot()
			if s.Count > 0 {
				if math.IsInf(s.Min, 0) || math.IsInf(s.Max, 0) {
					t.Fatalf("iteration %d: snapshot counts %d observations with min %v max %v", i, s.Count, s.Min, s.Max)
				}
				break
			}
		}
		<-done
	}
}
