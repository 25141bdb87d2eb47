package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sprintgame/internal/core"
	"sprintgame/internal/policy"
	"sprintgame/internal/power"
	"sprintgame/internal/sim"
	"sprintgame/internal/telemetry"
	"sprintgame/internal/workload"
)

// testGame is a small rack game so cluster tests stay fast.
func testGame(tb testing.TB, chips int) core.Config {
	tb.Helper()
	cfg := core.DefaultConfig()
	cfg.N = chips
	cfg.Trip = power.LinearTripModel{
		NMin: float64(chips) / 4,
		NMax: 3 * float64(chips) / 4,
	}
	return cfg
}

// testCluster builds an R-rack cluster over the named benchmarks,
// rotating the mix per rack so the cluster is heterogeneous.
func testCluster(tb testing.TB, racks, chips, epochs int, names ...string) Config {
	tb.Helper()
	if len(names) == 0 {
		names = []string{"decision"}
	}
	specs := make([]RackSpec, racks)
	for r := range specs {
		groups := make([]sim.Group, 0, len(names))
		remaining := chips
		for i := range names {
			name := names[(r+i)%len(names)]
			b, err := workload.ByName(name)
			if err != nil {
				tb.Fatal(err)
			}
			count := remaining / (len(names) - i)
			remaining -= count
			groups = append(groups, sim.Group{Class: b.Name, Count: count, Bench: b})
		}
		specs[r] = RackSpec{Groups: groups}
	}
	return Config{
		Racks:    specs,
		Epochs:   epochs,
		BaseSeed: 7,
		Game:     testGame(tb, chips),
		Policy:   BackoffFactory(),
	}
}

func TestClusterDeterministicAcrossWorkerCounts(t *testing.T) {
	base := testCluster(t, 8, 16, 300, "decision", "pagerank")

	run := func(workers int) (*Result, []byte) {
		cfg := base
		cfg.Workers = workers
		var trace bytes.Buffer
		cfg.Tracer = telemetry.NewTracer(&trace)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, trace.Bytes()
	}

	res1, trace1 := run(1)
	res8, trace8 := run(8)
	if res8.Workers != 8 {
		t.Fatalf("workers = %d, want 8", res8.Workers)
	}
	// Aggregates, per-rack results, and the trace must be byte-identical
	// regardless of parallelism.
	res1.Workers = res8.Workers // the pool size is the only allowed difference
	if !reflect.DeepEqual(res1, res8) {
		t.Errorf("results differ between workers=1 and workers=8:\n%+v\nvs\n%+v", res1, res8)
	}
	if !bytes.Equal(trace1, trace8) {
		t.Error("traces differ between workers=1 and workers=8")
	}
}

func TestClusterMatchesStandaloneRacks(t *testing.T) {
	cfg := testCluster(t, 4, 16, 300, "decision", "linear")
	cfg.Workers = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Racks) != 4 {
		t.Fatalf("got %d rack results, want 4", len(res.Racks))
	}
	// Each rack must reproduce, exactly, a standalone single-rack run
	// with the same seed, groups, and policy.
	for i := range cfg.Racks {
		simCfg := cfg.RackSimConfig(i)
		if simCfg.Seed != res.Racks[i].Seed {
			t.Fatalf("rack %d: seed mismatch %d vs %d", i, simCfg.Seed, res.Racks[i].Seed)
		}
		pol, err := cfg.Policy(i, cfg.Racks[i], simCfg)
		if err != nil {
			t.Fatal(err)
		}
		standalone, err := sim.Run(simCfg, pol)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(standalone, res.Racks[i].Sim) {
			t.Errorf("rack %d diverges from standalone sim run:\ncluster: %+v\nstandalone: %+v",
				i, res.Racks[i].Sim, standalone)
		}
	}
}

func TestClusterAggregates(t *testing.T) {
	cfg := testCluster(t, 3, 16, 200)
	cfg.Racks[1].Name = "edge-rack"
	cfg.Racks[2].Seed = 99
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Agents != 48 {
		t.Errorf("agents = %d, want 48", res.Agents)
	}
	if res.Racks[0].Name != "rack0" || res.Racks[1].Name != "edge-rack" {
		t.Errorf("rack names = %q, %q", res.Racks[0].Name, res.Racks[1].Name)
	}
	if res.Racks[2].Seed != 99 {
		t.Errorf("explicit seed not honored: %d", res.Racks[2].Seed)
	}
	trips, units := 0, 0.0
	for _, r := range res.Racks {
		trips += r.Sim.Trips
		units += r.Sim.TaskRate * float64(r.Agents) * float64(res.Epochs)
	}
	if trips != res.Trips {
		t.Errorf("trips = %d, sum of racks = %d", res.Trips, trips)
	}
	if diff := res.TotalUnits - units; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("total units = %v, sum of racks = %v", res.TotalUnits, units)
	}
	wantTPRE := float64(trips) / float64(3*res.Epochs)
	if res.TripsPerRackEpoch != wantTPRE {
		t.Errorf("trips/rack-epoch = %v, want %v", res.TripsPerRackEpoch, wantTPRE)
	}
	if s := res.Shares.Sprinting + res.Shares.ActiveIdle + res.Shares.Cooling + res.Shares.Recovery; s < 0.999 || s > 1.001 {
		t.Errorf("cluster shares sum to %v, want 1", s)
	}
	if res.Sprinters.Min > res.Sprinters.Mean || res.Sprinters.Mean > res.Sprinters.Max {
		t.Errorf("sprinter distribution out of order: %+v", res.Sprinters)
	}
}

func TestClusterTelemetry(t *testing.T) {
	cfg := testCluster(t, 3, 16, 50)
	metrics := telemetry.NewRegistry()
	var trace bytes.Buffer
	cfg.Metrics = metrics
	cfg.Tracer = telemetry.NewTracer(&trace)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if got := metrics.Counter("cluster.racks").Value(); got != 3 {
		t.Errorf("cluster.racks = %d, want 3", got)
	}
	if got := metrics.Counter("cluster.rack_epochs").Value(); got != 150 {
		t.Errorf("cluster.rack_epochs = %d, want 150", got)
	}
	if got := metrics.Counter("cluster.trips").Value(); got != int64(res.Trips) {
		t.Errorf("cluster.trips = %d, want %d", got, res.Trips)
	}
	if got := metrics.Gauge("cluster.task_rate").Value(); got != res.TaskRate {
		t.Errorf("cluster.task_rate = %v, want %v", got, res.TaskRate)
	}
	if got := metrics.Histogram("cluster.rack_task_rate", nil).Snapshot().Count; got != 3 {
		t.Errorf("cluster.rack_task_rate observations = %d, want 3", got)
	}

	type span struct {
		Event    string  `json:"event"`
		Name     string  `json:"name"`
		Rack     int     `json:"rack"`
		Seed     uint64  `json:"seed"`
		Agents   int     `json:"agents"`
		Policy   string  `json:"policy"`
		TaskRate float64 `json:"task_rate"`
		Trips    int     `json:"trips"`
		Snapshot *struct {
			Rack  int `json:"rack"`
			Epoch int `json:"epoch"`
		} `json:"snapshot"`
	}
	counts := map[string]int{}
	var racks []span
	var run span
	for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if s.Event != "span" {
			t.Fatalf("non-span trace line %q", line)
		}
		counts[s.Name]++
		switch s.Name {
		case "cluster.rack":
			racks = append(racks, s)
		case "cluster.run":
			run = s
		}
	}
	if counts["cluster.epoch"] != 50 || counts["cluster.rack"] != 3 || counts["cluster.run"] != 1 {
		t.Errorf("trace spans = %v, want 50 cluster.epoch, 3 cluster.rack, 1 cluster.run", counts)
	}
	for i, s := range racks {
		r := res.Racks[i]
		if s.Rack != r.Rack || s.Seed != r.Seed || s.Agents != r.Agents || s.Policy != r.Sim.Policy ||
			s.TaskRate != r.Sim.TaskRate || s.Trips != r.Sim.Trips ||
			s.Snapshot == nil || s.Snapshot.Rack != r.Rack || s.Snapshot.Epoch != r.Sim.Epochs {
			t.Errorf("cluster.rack span %d = %+v, want rack result %+v", i, s, r)
		}
	}
	if run.TaskRate != res.TaskRate || run.Trips != res.Trips {
		t.Errorf("cluster.run span = %+v, want task rate %v and %d trips", run, res.TaskRate, res.Trips)
	}
}

// TestRackConfigDropsTelemetrySinks pins the determinism contract's
// first half: neither batch racks nor serving-mode steppers inherit the
// cluster game's telemetry sinks. A Span reaching the factories would
// hang concurrent racks' solver.iter spans under one parent, whose
// child counter would make span IDs depend on the worker count.
func TestRackConfigDropsTelemetrySinks(t *testing.T) {
	cfg := testCluster(t, 4, 16, 10)
	cfg.Game.Metrics = telemetry.NewRegistry()
	cfg.Game.Span = telemetry.NewTracer(io.Discard).StartSpan("caller", "t")
	cfg.Workers = 2
	var mu sync.Mutex
	leaked := 0
	inner := cfg.Policy
	cfg.Policy = func(rack int, spec RackSpec, simCfg sim.Config) (policy.Policy, error) {
		if simCfg.Game.Span != nil || simCfg.Game.Metrics != nil {
			mu.Lock()
			leaked++
			mu.Unlock()
		}
		return inner(rack, spec, simCfg)
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if leaked != 0 {
		t.Errorf("%d of 4 rack factories saw the cluster game's Span or Metrics", leaked)
	}
	for i := range cfg.Racks {
		if g := cfg.RackSimConfig(i).Game; g.Span != nil || g.Metrics != nil {
			t.Errorf("RackSimConfig(%d) keeps the cluster game's telemetry sinks", i)
		}
	}
}

func TestClusterEquilibriumSharesSolves(t *testing.T) {
	// 6 racks over 2 distinct mixes; with a shared cache the cluster
	// must perform exactly 2 equilibrium solves.
	cfg := testCluster(t, 6, 16, 50, "decision", "pagerank")
	cache := core.NewSolveCache(16, nil)
	cfg.Policy = EquilibriumFactory(cache)
	cfg.Workers = 4
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Misses != 2 {
		t.Errorf("solves = %d, want 2 (one per distinct mix)", st.Misses)
	}
	if st.Hits+st.Coalesced != 4 {
		t.Errorf("hits+coalesced = %d, want 4", st.Hits+st.Coalesced)
	}
}

func TestClusterValidation(t *testing.T) {
	good := testCluster(t, 2, 16, 10)
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"no racks", func(c *Config) { c.Racks = nil }},
		{"no epochs", func(c *Config) { c.Epochs = 0 }},
		{"nil policy", func(c *Config) { c.Policy = nil }},
		{"empty rack", func(c *Config) { c.Racks[1].Groups = nil }},
	}
	for _, tc := range cases {
		cfg := good
		cfg.Racks = append([]RackSpec{}, good.Racks...)
		tc.mod(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// A rack whose groups don't sum to N is an input error: Run fails
	// with sim's error and the rack index instead of degrading.
	cfg := good
	cfg.Racks = append([]RackSpec{}, good.Racks...)
	cfg.Racks[1].Groups = []sim.Group{{Class: "decision", Count: 5, Bench: cfg.Racks[0].Groups[0].Bench}}
	res, err := Run(cfg)
	if res != nil || err == nil || !strings.Contains(err.Error(), "cluster: rack 1: sim: group counts sum to 5") {
		t.Errorf("want a Run error naming rack 1, got res=%v err=%v", res, err)
	}
}

func TestMixSeedDecorrelates(t *testing.T) {
	seen := map[uint64]bool{}
	for base := uint64(0); base < 4; base++ {
		for rack := 0; rack < 64; rack++ {
			s := MixSeed(base, rack)
			if seen[s] {
				t.Fatalf("duplicate derived seed %d (base %d rack %d)", s, base, rack)
			}
			seen[s] = true
		}
	}
}
