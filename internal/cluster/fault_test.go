package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sprintgame/internal/policy"
	"sprintgame/internal/sim"
	"sprintgame/internal/telemetry"
)

func TestFaultPlanSchedule(t *testing.T) {
	var nilPlan *FaultPlan
	if nilPlan.Active() {
		t.Error("nil plan must be inactive")
	}
	none := (&FaultPlan{}).Schedule(7, 4, 100)
	for i, e := range none {
		if e != -1 {
			t.Errorf("inactive plan killed rack %d at %d", i, e)
		}
	}

	plan := &FaultPlan{Rate: 0.5, Kills: map[int]int{2: 33}}
	a := plan.Schedule(7, 16, 100)
	b := plan.Schedule(7, 16, 100)
	if !reflect.DeepEqual(a, b) {
		t.Error("schedule is not deterministic for a fixed base seed")
	}
	if a[2] != 33 {
		t.Errorf("explicit kill overridden: rack 2 dies at %d, want 33", a[2])
	}
	killed := 0
	for i, e := range a {
		if e < -1 || e >= 100 {
			t.Errorf("rack %d kill epoch %d out of range", i, e)
		}
		if e >= 0 {
			killed++
		}
	}
	if killed == 0 || killed == 16 {
		t.Errorf("rate 0.5 over 16 racks killed %d, want a mixed outcome", killed)
	}
	if c := plan.Schedule(8, 16, 100); reflect.DeepEqual(a, c) {
		t.Error("different base seeds produced the same rate-driven schedule")
	}
}

func TestParseFaultPlan(t *testing.T) {
	plan, err := ParseFaultPlan("0.25")
	if err != nil || plan.Rate != 0.25 || len(plan.Kills) != 0 {
		t.Errorf("rate spec: %+v, %v", plan, err)
	}
	plan, err = ParseFaultPlan("3@100, 7@250")
	if err != nil || plan.Rate != 0 || plan.Kills[3] != 100 || plan.Kills[7] != 250 {
		t.Errorf("pair spec: %+v, %v", plan, err)
	}
	for _, bad := range []string{"", "1.5", "-0.1", "x", "3@", "@5", "3@x", "3-5"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("spec %q should fail to parse", bad)
		}
	}
}

func TestClusterFaultValidation(t *testing.T) {
	good := testCluster(t, 4, 16, 50)
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"rate > 1", func(c *Config) { c.Faults = &FaultPlan{Rate: 1.5} }},
		{"negative rate", func(c *Config) { c.Faults = &FaultPlan{Rate: -0.1} }},
		{"rack out of range", func(c *Config) { c.Faults = &FaultPlan{Kills: map[int]int{9: 5}} }},
		{"epoch out of range", func(c *Config) { c.Faults = &FaultPlan{Kills: map[int]int{0: 50}} }},
	}
	for _, tc := range cases {
		cfg := good
		tc.mod(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestClusterFaultFailFastJoinsAllErrors(t *testing.T) {
	cfg := testCluster(t, 4, 16, 50)
	cfg.Faults = &FaultPlan{Kills: map[int]int{0: 5, 1: 10, 2: 15, 3: 20}}
	res, err := Run(cfg)
	if res != nil || err == nil {
		t.Fatalf("want nil result + error, got %v, %v", res, err)
	}
	// Every failed rack must be reported, not just the first.
	for _, want := range []string{"rack 0", "rack 1", "rack 2", "rack 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q misses %q", err, want)
		}
	}
	var re *RackError
	if !errors.As(err, &re) {
		t.Fatalf("error %v does not expose *RackError", err)
	}
	var rf *RackFault
	if !errors.As(err, &rf) {
		t.Error("error chain must reach the injected *RackFault")
	}
}

// TestClusterFaultKillAggregatesSurvivors: with default options a
// killed rack degrades the run instead of failing it. Its partial
// result is reported in Result.Failed and the survivors aggregate.
func TestClusterFaultKillAggregatesSurvivors(t *testing.T) {
	cfg := testCluster(t, 4, 16, 50)
	cfg.RecordSeries = true
	cfg.Faults = &FaultPlan{Kills: map[int]int{2: 10}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || len(res.Racks) != 3 {
		t.Fatalf("failed=%d survivors=%d, want 1/3", len(res.Failed), len(res.Racks))
	}
	f := res.Failed[0]
	if f.Rack != 2 || f.Epoch != 10 {
		t.Errorf("rack error = %+v, want rack 2 at epoch 10", f)
	}
	if want := "cluster: rack 2 (rack2) failed after 10 epochs: injected fault"; !strings.HasPrefix(f.Error(), want) {
		t.Errorf("rack error text = %q, want prefix %q", f.Error(), want)
	}
	if f.Partial == nil || f.Partial.Epochs != 10 || len(f.Partial.SprintersPerEpoch) != 10 {
		t.Errorf("partial result missing or wrong length: %+v", f.Partial)
	}
	for _, r := range res.Racks {
		if r.Rack == 2 {
			t.Error("failed rack leaked into the survivor list")
		}
	}
	// Aggregates must cover exactly the three survivors.
	if res.Agents != 3*16 {
		t.Errorf("agents = %d, want 48", res.Agents)
	}
	trips, units := 0, 0.0
	for _, r := range res.Racks {
		trips += r.Sim.Trips
		units += r.Sim.TaskRate * float64(r.Agents) * float64(res.Epochs)
	}
	if trips != res.Trips {
		t.Errorf("trips = %d, survivor sum = %d", res.Trips, trips)
	}
	if diff := res.TotalUnits - units; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("total units = %v, survivor sum = %v", res.TotalUnits, units)
	}
	if want := float64(trips) / float64(3*res.Epochs); res.TripsPerRackEpoch != want {
		t.Errorf("trips/rack-epoch = %v, want %v over survivors", res.TripsPerRackEpoch, want)
	}
	if len(res.Failed) != 1 || !strings.Contains(res.Failed[0].Error(), "rack 2") {
		t.Errorf("failed = %+v, want rack 2 reported", res.Failed)
	}
}

func TestClusterFaultPolicyFactoryFailure(t *testing.T) {
	base := testCluster(t, 3, 16, 50)
	base.Policy = func(rack int, spec RackSpec, simCfg sim.Config) (policy.Policy, error) {
		if rack == 1 {
			return nil, errors.New("no such strategy")
		}
		return policy.NewGreedy(0), nil
	}

	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0].Rack != 1 {
		t.Fatalf("failed = %+v, want rack 1", res.Failed)
	}
	f := res.Failed[0]
	if f.Epoch != -1 || f.Partial != nil {
		t.Errorf("policy failure = %+v, want epoch -1, no partial", f)
	}
	if !strings.Contains(f.Error(), "rack 1") || !strings.Contains(f.Error(), "policy") {
		t.Errorf("policy error = %v, want rack 1 policy failure", f.Error())
	}
	if len(res.Racks) != 2 {
		t.Errorf("survivors = %d, want 2", len(res.Racks))
	}
}

func TestClusterFaultAllRacksFailErrors(t *testing.T) {
	cfg := testCluster(t, 3, 16, 50)
	cfg.Faults = &FaultPlan{Kills: map[int]int{0: 1, 1: 2, 2: 3}}
	res, err := Run(cfg)
	if res != nil || err == nil || !strings.Contains(err.Error(), "all 3 racks failed") {
		t.Errorf("all-failed run: res=%v err=%v", res, err)
	}
}

func TestClusterFaultTelemetry(t *testing.T) {
	cfg := testCluster(t, 4, 16, 40)
	cfg.Faults = &FaultPlan{Kills: map[int]int{1: 7}}
	metrics := telemetry.NewRegistry()
	var trace bytes.Buffer
	cfg.Metrics = metrics
	cfg.Tracer = telemetry.NewTracer(&trace)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics.Counter("cluster.rack_failures").Value(); got != 1 {
		t.Errorf("cluster.rack_failures = %d, want 1", got)
	}
	if got := metrics.Counter("cluster.racks").Value(); got != int64(len(res.Racks)) {
		t.Errorf("cluster.racks = %d, want %d survivors", got, len(res.Racks))
	}
	type span struct {
		Event    string `json:"event"`
		Name     string `json:"name"`
		Rack     int    `json:"rack"`
		Failed   bool   `json:"failed"`
		Epoch    *int   `json:"epoch"`
		Error    string `json:"error"`
		Snapshot *struct {
			Alive bool `json:"alive"`
			Epoch int  `json:"epoch"`
		} `json:"snapshot"`
		FailedRacks int `json:"failed_racks"`
	}
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
		switch s.Name {
		case "cluster.rack":
			racks = append(racks, s)
		case "cluster.run":
			run = s
		}
	}
	if len(racks) != 4 {
		t.Fatalf("cluster.rack spans = %d, want 4 (failed racks included)", len(racks))
	}
	for i, s := range racks {
		if s.Failed != (i == 1) || (s.Epoch != nil) != (i == 1) {
			t.Errorf("rack span %d = %+v, want only rack 1 failed with an epoch", i, s)
		}
	}
	if f := racks[1]; *f.Epoch != 7 || !strings.Contains(f.Error, "injected fault") ||
		f.Snapshot == nil || f.Snapshot.Alive || f.Snapshot.Epoch != 7 {
		t.Errorf("failed rack span = %+v, want epoch 7, the injected fault, and a dead snapshot at epoch 7", f)
	}
	if run.FailedRacks != 1 {
		t.Errorf("cluster.run failed_racks = %d, want 1", run.FailedRacks)
	}
}

// TestClusterFaultDeterministicAcrossWorkerCounts is the acceptance
// gate: an active FaultPlan with degraded aggregation must produce
// byte-identical results and traces for every pool size.
func TestClusterFaultDeterministicAcrossWorkerCounts(t *testing.T) {
	base := testCluster(t, 8, 16, 120, "decision", "pagerank")
	base.Faults = &FaultPlan{Rate: 0.4, Kills: map[int]int{5: 60}}

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

	ref, refTrace := run(1)
	if len(ref.Failed) == 0 || len(ref.Racks) == 0 {
		t.Fatalf("want a mixed outcome to exercise degraded aggregation: %d failed, %d survived",
			len(ref.Failed), len(ref.Racks))
	}
	for _, workers := range []int{4, runtime.NumCPU()} {
		res, trace := run(workers)
		res.Workers = ref.Workers // the pool size is the only allowed difference
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("workers=%d: result diverges from workers=1", workers)
		}
		if !bytes.Equal(refTrace, trace) {
			t.Errorf("workers=%d: trace diverges from workers=1", workers)
		}
	}
}
