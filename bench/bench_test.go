package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"sprintgame/internal/telemetry"
)

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{1000, 0.99, true}, // rank 990 of 1000: 10 samples beyond
		{999, 0.99, false}, // rank 990 of 999: 9 beyond
		{20, 0.50, true},   // rank 10 of 20: 10 beyond
		{19, 0.50, false},  // rank 10 of 19: 9 beyond
		{0, 0.50, false},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		_, ok := percentile(xs, tc.q)
		h := newLatencyHist()
		for _, x := range xs {
			h.add(time.Duration(x * 1e3))
		}
		_, hok := h.quantileNS(tc.q)
		if ok != tc.ok || hok != tc.ok {
			t.Errorf("n=%d q=%v: sorted ok %v, histogram ok %v, want %v", tc.n, tc.q, ok, hok, tc.ok)
		}
	}
}

func TestHistogramQuantileWithinBucket(t *testing.T) {
	h := newLatencyHist()
	var xs []float64
	for i := 1; i <= 5000; i++ {
		x := 1e3 * math.Exp(float64(i)/1000) // 2.7 µs to 148 µs
		xs = append(xs, x)
		h.add(time.Duration(x))
	}
	for _, q := range []float64{0.5, 0.99} {
		want, _ := percentile(xs, q)
		got, ok := h.quantileNS(q)
		if !ok || math.Abs(got-want)/want > histGrowth-1 {
			t.Errorf("q=%v: histogram %v, exact %v", q, got, want)
		}
	}
}

func TestWindowRate(t *testing.T) {
	for _, tc := range []struct {
		counts  []int64
		elapsed time.Duration
		want    float64
	}{
		// The partial fourth window is ignored.
		{[]int64{10, 30, 20, 99}, 3500 * time.Millisecond, 20},
		{[]int64{10, 40, 20, 30, 5}, 4200 * time.Millisecond, 25},
		// Shorter than one window: the mean rate.
		{[]int64{7, 0}, 500 * time.Millisecond, 14},
	} {
		if got := windowRate(tc.counts, tc.elapsed); got != tc.want {
			t.Errorf("windowRate(%v, %v) = %v, want %v", tc.counts, tc.elapsed, got, tc.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 3 = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		change []float64
		better string
		want   string
	}{
		{[]float64{95, 96, 95, 94, 95}, "higher", "ok"},    // 5% worse, bound 10%
		{[]float64{85, 86, 85, 84, 85}, "higher", "worse"}, // 15% worse
		{[]float64{85, 86, 85, 84, 85}, "lower", "ok"},     // 15% better
		{[]float64{60, 140, 100, 80, 120}, "higher", "unresolved"},
		{[]float64{200, 300, 250, 220, 280}, "higher", "ok"}, // wide, but every run better
	} {
		if got := verdict(base, tc.change, tc.better, 0.1); got != tc.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", tc.change, tc.better, got, tc.want)
		}
	}
}

func TestSpanSinkParsesTracerOutput(t *testing.T) {
	sink := newSpanSink()
	tr := telemetry.NewTracer(sink).WithClock(time.Now)
	root := tr.StartSpan("core.solve", telemetry.TraceIDFromSeed(7))
	root.Child("solver.iter").EndWith(telemetry.Fields{"note": `tricky "id":"zz" {[`, "nested": map[string]any{"a": []int{1, 2}}})
	root.EndWith(telemetry.Fields{"iterations": 3, "converged": true})
	tr.Emit("solver.done", telemetry.Fields{"iterations": 3})
	recs, names, err := sink.take()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d span records, want 2 (flat events dropped)", len(recs))
	}
	iter, solve := recs[0], recs[1]
	if names[iter.name] != "solver.iter" || iter.parent != solve.id {
		t.Errorf("iteration span %+v is not a child of %+v", iter, solve)
	}
	if names[solve.name] != "core.solve" || solve.iters != 3 || !solve.flag || solve.parent != 0 {
		t.Errorf("solve span %+v lost its fields", solve)
	}
	if solve.start <= 0 || solve.dur < iter.dur {
		t.Errorf("solve timing %d+%d does not cover iteration %d", solve.start, solve.dur, iter.dur)
	}
	if _, err := sink.Write([]byte(`{"event":"span","dur_ns":12x}`)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sink.take(); err == nil {
		t.Error("a malformed line must surface as an error")
	}
}

// TestServeLayersSelfTime feeds a synthetic request tree through a
// tracer with a hand-driven clock and checks the self-time split.
func TestServeLayersSelfTime(t *testing.T) {
	sink := newSpanSink()
	base := time.Unix(1_700_000_000, 0)
	now := base
	at := func(us int) time.Time {
		now = base.Add(time.Duration(us) * time.Microsecond)
		return now
	}
	tr := telemetry.NewTracer(sink).WithClock(func() time.Time { return now })
	strategies := telemetry.Fields{"type": "strategies"}

	// One request of set-up traffic before the timed phase starts.
	at(0)
	tr.StartSpan("coord.client.request", telemetry.TraceIDFromSeed(999)).EndWith(strategies)

	const requests = 21
	t0 := at(1000)
	rec := newRecorder(t0, time.Second)
	for i := 0; i < requests; i++ {
		off := 1000 + 1000*i
		client := tr.StartSpan("coord.client.request", telemetry.TraceIDFromSeed(uint64(i)))
		at(off + 10)
		req := tr.StartSpanFrom("coord.request", client.TraceID(), client.SpanID())
		req.Child("coord.parse").WithTiming(now, 2*time.Microsecond).End()
		at(off + 15)
		d := req.Child("coord.dispatch")
		at(off + 20)
		pool := d.Child("coord.pool")
		at(off + 30)
		pool.EndWith(telemetry.Fields{"memoized": true})
		lookup := d.Child("cache.lookup")
		at(off + 35)
		lookup.EndWith(telemetry.Fields{"outcome": "hit"})
		at(off + 75)
		d.EndWith(strategies)
		at(off + 80)
		enc := req.Child("coord.encode")
		at(off + 88)
		enc.End()
		at(off + 90)
		req.EndWith(strategies)
		at(off + 100)
		client.EndWith(strategies)
		rec.attempted++
		rec.done(base.Add(time.Duration(off)*time.Microsecond), base.Add(time.Duration(off+120)*time.Microsecond), 1)
		at(off + 1000)
	}
	o := &outcome{rec: rec, layers: layerMetrics{}}
	serveLayers(sink, t0, now.Add(time.Second), o)
	if len(o.failures) > 0 {
		t.Fatal(o.failures)
	}
	want := map[string]float64{
		"coord.transport_us.p50":     20, // client 100 − server 80
		"coord.request_self_us.p50":  10, // 80 − parse 2 − dispatch 60 − encode 8
		"coord.parse_us.p50":         2,
		"coord.encode_us.p50":        8,
		"coord.dispatch_self_us.p50": 45, // 60 − pool 10 − lookup 5
		"coord.pool_us.p50":          10,
		"core.cache_lookup_us.p50":   5,
		"coord.pool_memo_share":      1,
	}
	for k, v := range want {
		if got, ok := o.layers[k]; !ok || math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
		}
	}
	if got, want := 1-o.attributed/o.opTotal, 1-100.0/120; math.Abs(got-want) > 1e-9 {
		t.Errorf("unattributed share = %v, want %v", got, want)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics
// the program reports in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the bench directory: %v", err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(def.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", def.EndToEnd, endToEnd)
	}
	if !slices.Equal(def.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", def.PerLayer, perLayer)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("BENCHMARK.json workloads %v do not match the program's", names)
			break
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that every metric is present and finite and that no operation or
// check failed.
func TestSmoke(t *testing.T) {
	if err := checkLoad(hostInfo()); err != nil {
		t.Skip(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e2e, err := measureEndToEnd(w, 1, 300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			layers, err := measureLayers(w, 1, 300*time.Millisecond, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []struct {
				res  *workloadResult
				got  map[string]value
				defs []metricDef
			}{{e2e, e2e.EndToEnd, endToEnd}, {layers, layers.PerLayer, perLayer}} {
				if !r.res.Correct || r.res.Failed != 0 || r.res.Attempted == 0 {
					t.Errorf("correct %v, %d of %d failed: %v", r.res.Correct, r.res.Failed, r.res.Attempted, r.res.Failures)
				}
				for _, d := range r.defs {
					v, ok := r.got[d.Name]
					if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
						t.Errorf("%s = %+v (present %v)", d.Name, v, ok)
					}
				}
			}
			if e2e.EndToEnd["ops_per_s"].Value <= 0 || e2e.EndToEnd["setup_s"].Value <= 0 {
				t.Errorf("throughput and set-up time must be positive: %v", e2e.EndToEnd)
			}
		})
	}
}
