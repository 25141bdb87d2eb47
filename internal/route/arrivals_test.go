package route

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"sprintgame/internal/stats"
	"sprintgame/internal/workload"
)

// collect materializes an arrival stream's first n epochs, copying each
// epoch's jobs out of the process's reused buffer.
func collect(t *testing.T, a Arrivals, seed uint64, n int) [][]Job {
	t.Helper()
	rng := stats.NewRNG(seed)
	out := make([][]Job, n)
	for e := 0; e < n; e++ {
		out[e] = slices.Clone(a.Epoch(e, rng))
		for i, j := range out[e] {
			if j.Units <= 0 {
				t.Fatalf("epoch %d job %d has units %v", e, i, j.Units)
			}
		}
	}
	return out
}

func TestPoissonArrivalsDeterministicAndCalibrated(t *testing.T) {
	p := &PoissonArrivals{Rate: 6, MeanUnits: 3}
	a := collect(t, p, 42, 500)
	b := collect(t, &PoissonArrivals{Rate: 6, MeanUnits: 3}, 42, 500)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different streams")
	}
	jobs, units := 0, 0.0
	for _, e := range a {
		jobs += len(e)
		for _, j := range e {
			units += j.Units
		}
	}
	if rate := float64(jobs) / 500; rate < 5 || rate > 7 {
		t.Errorf("arrival rate %.2f, want ~6", rate)
	}
	if mean := units / float64(jobs); mean < 2.4 || mean > 3.6 {
		t.Errorf("mean units %.2f, want ~3", mean)
	}
}

func TestDiurnalArrivalsBurstsAndCycle(t *testing.T) {
	d := &DiurnalArrivals{
		Base: 10, Amp: 8, Period: 100,
		Burst: 4, PBurst: 0.05, BurstDwell: 5, MeanUnits: 2,
	}
	a := collect(t, d, 7, 1000)
	b := collect(t, &DiurnalArrivals{
		Base: 10, Amp: 8, Period: 100,
		Burst: 4, PBurst: 0.05, BurstDwell: 5, MeanUnits: 2,
	}, 7, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different streams")
	}
	// Peak quarter of the cycle should out-arrive the trough quarter.
	peak, trough := 0, 0
	for e, jobs := range a {
		switch (e % 100) / 25 {
		case 0:
			peak += len(jobs)
		case 2:
			trough += len(jobs)
		}
	}
	if peak <= trough {
		t.Errorf("peak quarter %d arrivals <= trough quarter %d; no cycle", peak, trough)
	}
}

// TestTraceArrivalsRoundTrip is the satellite's round-trip contract:
// tracegen output saved to disk and loaded back drives byte-identical
// arrival streams.
func TestTraceArrivalsRoundTrip(t *testing.T) {
	b, err := workload.ByName("decision")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := workload.GenerateTraceSet(b, 3, 4, 50)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := ts.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := workload.LoadTraceSet(&buf)
	if err != nil {
		t.Fatal(err)
	}

	orig := collect(t, &TraceArrivals{Set: ts, Scale: 0.02}, 1, 120)
	replay := collect(t, &TraceArrivals{Set: loaded, Scale: 0.02}, 99, 120)
	if !reflect.DeepEqual(orig, replay) {
		t.Error("serialized trace set produced a different arrival stream")
	}
	// Deterministic replay: the RNG seed must not matter at all, and
	// epochs past the trace length wrap.
	if len(orig) < 60 || !reflect.DeepEqual(orig[10], orig[60]) {
		t.Error("trace arrivals did not wrap at the trace length")
	}
}

func TestParseArrivalConfig(t *testing.T) {
	good := []string{
		"poisson",
		"poisson:rate=12,units=3",
		"diurnal:base=8,amp=6,period=200,burst=3,pburst=0.02,dwell=10,units=2",
		"trace:scale=0.05",
		"trace",
		" poisson : rate = 2 ",
	}
	for _, spec := range good {
		cfg, err := ParseArrivalConfig(spec)
		if err != nil {
			t.Errorf("ParseArrivalConfig(%q): %v", spec, err)
			continue
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%q): %v", spec, err)
		}
	}
	bad := []string{
		"",
		"uniform:rate=2",
		"poisson:rate",
		"poisson:burst=2",
		"poisson:rate=abc",
		"poisson:rate=NaN",
		"poisson:rate=1,rate=2",
		"poisson:rate=-1",
		"diurnal:period=0",
		"diurnal:pburst=2",
		"trace:scale=0",
	}
	for _, spec := range bad {
		cfg, err := ParseArrivalConfig(spec)
		if err == nil {
			err = cfg.Validate()
		}
		if err == nil {
			t.Errorf("ParseArrivalConfig(%q) should fail", spec)
		}
	}
}

func TestBuildArrivals(t *testing.T) {
	if _, err := LoadArrivals("poisson:rate=4", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArrivals("trace", nil); err == nil {
		t.Error("trace kind without a trace set should fail")
	}
	b, _ := workload.ByName("decision")
	ts, _ := workload.GenerateTraceSet(b, 1, 2, 20)
	a, err := LoadArrivals("trace:scale=0.1", ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.(*TraceArrivals).Set.Traces) != 2 {
		t.Error("trace arrivals lost the trace set")
	}
}
