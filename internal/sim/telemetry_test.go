package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"sprintgame/internal/core"
	"sprintgame/internal/policy"
	"sprintgame/internal/telemetry"
	"sprintgame/internal/workload"
)

func telemetryConfig(t *testing.T, epochs int) Config {
	t.Helper()
	bench, err := workload.ByName("decision")
	if err != nil {
		t.Fatal(err)
	}
	game := core.DefaultConfig()
	return Config{
		Epochs:       epochs,
		Seed:         7,
		Game:         game,
		Groups:       []Group{{Class: "decision", Count: game.N, Bench: bench}},
		RecordSeries: true,
	}
}

// TestTraceMatchesSeries is the acceptance check of the telemetry layer:
// the sim.epoch spans' per-epoch sprinter and recovering counts must
// agree exactly with the Result's recorded series, the per-class
// aggregation must sum to the rack total, trip fields must appear on
// exactly the Result's trips, and the sim.run span must summarize the
// Result.
func TestTraceMatchesSeries(t *testing.T) {
	cfg := telemetryConfig(t, 50)
	cfg.Metrics = telemetry.NewRegistry()
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf)
	cfg.Span = tr.StartSpan("test", telemetry.TraceIDFromSeed(cfg.Seed))

	res, err := Run(cfg, policy.NewGreedy(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}

	type span struct {
		Event         string         `json:"event"`
		Name          string         `json:"name"`
		Epoch         int            `json:"epoch"`
		Sprinters     int            `json:"sprinters"`
		Recovering    int            `json:"recovering"`
		Tripped       bool           `json:"tripped"`
		ByClass       map[string]int `json:"by_class"`
		Ptrip         *float64       `json:"ptrip"`
		RecoveryExit  *float64       `json:"recovery_exit"`
		RecoveryEnded bool           `json:"recovery_ended"`
		Policy        string         `json:"policy"`
		Epochs        int            `json:"epochs"`
		TaskRate      float64        `json:"task_rate"`
		Trips         int            `json:"trips"`
	}
	var epochs, runs []span
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e span
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if e.Event != "span" {
			t.Fatalf("non-span trace line %q", sc.Text())
		}
		switch e.Name {
		case "sim.epoch":
			epochs = append(epochs, e)
		case "sim.run":
			runs = append(runs, e)
		}
	}
	if len(epochs) != cfg.Epochs {
		t.Fatalf("%d sim.epoch spans, want %d", len(epochs), cfg.Epochs)
	}
	if len(runs) != 1 {
		t.Fatalf("%d sim.run spans, want 1", len(runs))
	}
	if r := runs[0]; r.Policy != res.Policy || r.Epochs != res.Epochs || r.TaskRate != res.TaskRate || r.Trips != res.Trips {
		t.Errorf("sim.run span %+v does not summarize the result %+v", r, res)
	}
	trips, recoveries := 0, 0
	for i, e := range epochs {
		if e.Epoch != i {
			t.Fatalf("epoch span %d reports epoch %d", i, e.Epoch)
		}
		if e.Sprinters != res.SprintersPerEpoch[i] {
			t.Errorf("epoch %d: trace sprinters %d != series %d", i, e.Sprinters, res.SprintersPerEpoch[i])
		}
		if e.Recovering != res.RecoveringPerEpoch[i] {
			t.Errorf("epoch %d: trace recovering %d != series %d", i, e.Recovering, res.RecoveringPerEpoch[i])
		}
		sum := 0
		for _, n := range e.ByClass {
			sum += n
		}
		if sum != e.Sprinters {
			t.Errorf("epoch %d: by_class sums to %d, sprinters %d", i, sum, e.Sprinters)
		}
		if e.Tripped != (e.Ptrip != nil) || e.Tripped != (e.RecoveryExit != nil) {
			t.Errorf("epoch %d: tripped=%v but ptrip=%v recovery_exit=%v", i, e.Tripped, e.Ptrip, e.RecoveryExit)
		}
		if e.Tripped {
			trips++
			if want := cfg.Game.Trip.Ptrip(float64(e.Sprinters)); *e.Ptrip != want {
				t.Errorf("epoch %d: trace ptrip %v, trip model gives %v", i, *e.Ptrip, want)
			}
		}
		if e.RecoveryEnded {
			recoveries++
		}
	}
	if trips == 0 {
		t.Fatal("the greedy run never tripped; the trip fields went unchecked")
	}
	if trips != res.Trips {
		t.Errorf("%d tripped epochs in the trace, result reports %d trips", trips, res.Trips)
	}
	if want := cfg.Metrics.Counter("sim.recoveries").Value(); int64(recoveries) != want {
		t.Errorf("%d recovery_ended epochs in the trace, sim.recoveries = %d", recoveries, want)
	}
}

func TestRunMetrics(t *testing.T) {
	cfg := telemetryConfig(t, 40)
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg

	res, err := Run(cfg, policy.NewGreedy(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sim.epochs").Value(); got != int64(cfg.Epochs) {
		t.Errorf("sim.epochs = %d, want %d", got, cfg.Epochs)
	}
	if got := reg.Counter("power.trips").Value(); got != int64(res.Trips) {
		t.Errorf("power.trips = %d, result has %d", got, res.Trips)
	}
	h := reg.Histogram("sim.sprinters_per_epoch", nil).Snapshot()
	if h.Count != int64(cfg.Epochs) {
		t.Errorf("sprinter histogram count = %d", h.Count)
	}
	wantSum := 0
	for _, n := range res.SprintersPerEpoch {
		wantSum += n
	}
	if int(h.Sum) != wantSum {
		t.Errorf("sprinter histogram sum = %v, series sums to %d", h.Sum, wantSum)
	}
	if g := reg.Gauge("sim.task_rate").Value(); g != res.TaskRate {
		t.Errorf("sim.task_rate = %v, result %v", g, res.TaskRate)
	}
}

// TestTelemetryDoesNotPerturbSimulation guards determinism: attaching
// sinks must not change a seeded run's outcome.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	plain, err := Run(telemetryConfig(t, 60), policy.NewGreedy(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := telemetryConfig(t, 60)
	cfg.Metrics = telemetry.NewRegistry()
	var buf bytes.Buffer
	cfg.Span = telemetry.NewTracer(&buf).StartSpan("test", "t")
	traced, err := Run(cfg, policy.NewGreedy(3))
	if err != nil {
		t.Fatal(err)
	}
	if plain.TaskRate != traced.TaskRate || plain.Trips != traced.Trips {
		t.Errorf("telemetry changed the run: %+v vs %+v", plain, traced)
	}
	for i := range plain.SprintersPerEpoch {
		if plain.SprintersPerEpoch[i] != traced.SprintersPerEpoch[i] {
			t.Fatalf("epoch %d sprinters diverge", i)
		}
	}
}
