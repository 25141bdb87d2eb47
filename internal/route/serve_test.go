package route

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sprintgame/internal/cluster"
	"sprintgame/internal/core"
	"sprintgame/internal/policy"
	"sprintgame/internal/power"
	"sprintgame/internal/sim"
	"sprintgame/internal/telemetry"
	"sprintgame/internal/workload"
)

// testGame scales the paper's rack game to n chips.
func testGame(n int) core.Config {
	game := core.DefaultConfig()
	game.N = n
	game.Trip = power.LinearTripModel{NMin: float64(n) / 4, NMax: 3 * float64(n) / 4}
	return game
}

// testCluster builds a racks-rack cluster of chips-chip racks running
// the decision benchmark under greedy sprinting. With hetero, rack
// pairs split their chips 1:3 (keeping total capacity), the contended
// shape where round-robin structurally overloads the small racks.
func testCluster(t testing.TB, racks, chips, epochs int, hetero bool) cluster.Config {
	t.Helper()
	b, err := workload.ByName("decision")
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]cluster.RackSpec, racks)
	for i := range specs {
		n := chips
		if hetero {
			if i%2 == 0 {
				n = chips / 2
			} else {
				n = chips + chips/2
			}
		}
		game := testGame(n)
		specs[i] = cluster.RackSpec{
			Groups: []sim.Group{{Class: "decision", Count: n, Bench: b}},
			Game:   &game,
		}
	}
	return cluster.Config{
		Racks:    specs,
		Epochs:   epochs,
		BaseSeed: 17,
		Game:     testGame(chips),
		Policy:   cluster.GreedyFactory(),
	}
}

// contendedArrivals offers ~load x the cluster's nominal capacity.
func contendedArrivals(totalChips int, load float64) *PoissonArrivals {
	const meanUnits = 4
	return &PoissonArrivals{Rate: load * float64(totalChips) / meanUnits, MeanUnits: meanUnits}
}

func serveOnce(t *testing.T, cc cluster.Config, policyName string, workers int, faults *cluster.FaultPlan) (*Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	cc.Workers = workers
	cc.Faults = faults
	cc.Tracer = telemetry.NewTracer(&buf)
	pol, err := ByName(policyName, cluster.MixSeed(cc.BaseSeed, -3)^0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Serve(Config{
		Cluster:  cc,
		Arrivals: contendedArrivals(4*32, 0.9),
		Router:   pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestServeDeterministicAcrossWorkers is the tentpole contract: for
// every shipped policy, serving results and traces are byte-identical
// for Workers in {1, 2, 4, NumCPU} — with and without an active fault
// plan killing racks mid-run.
func TestServeDeterministicAcrossWorkers(t *testing.T) {
	plans := map[string]*cluster.FaultPlan{
		"healthy": nil,
		"faulty":  {Kills: map[int]int{1: 40, 2: 90}},
	}
	for planName, plan := range plans {
		for _, polName := range PolicyNames() {
			cc := testCluster(t, 4, 32, 150, false)
			baseRes, baseTrace := serveOnce(t, cc, polName, 1, plan)
			baseRes.Workers = 0 // the one field allowed to differ
			for _, w := range []int{2, 4, runtime.NumCPU()} {
				res, trace := serveOnce(t, cc, polName, w, plan)
				res.Workers = 0
				if !reflect.DeepEqual(res, baseRes) {
					t.Errorf("%s/%s: workers=%d result differs from workers=1", planName, polName, w)
				}
				if !bytes.Equal(trace, baseTrace) {
					t.Errorf("%s/%s: workers=%d trace differs from workers=1", planName, polName, w)
				}
			}
			res, _ := serveOnce(t, cc, polName, 1, plan)
			res.Workers = 0
			if !reflect.DeepEqual(res, baseRes) {
				t.Errorf("%s/%s: rerun differs", planName, polName)
			}
		}
	}
}

// TestServeReroutesOffDeadRacks: jobs queued on a killed rack are
// re-dispatched to survivors — delayed, never dropped.
func TestServeReroutesOffDeadRacks(t *testing.T) {
	cc := testCluster(t, 3, 32, 120, false)
	plan := &cluster.FaultPlan{Kills: map[int]int{0: 60}}
	res, trace := serveOnce(t, cc, "round-robin", 2, plan)

	if res.Arrived != res.Completed+res.Unfinished {
		t.Fatalf("conservation violated: %d != %d + %d", res.Arrived, res.Completed, res.Unfinished)
	}
	if res.Arrived == 0 || res.Completed == 0 {
		t.Fatalf("no traffic served: %+v", res)
	}
	if len(res.Failed) != 1 || res.Failed[0].Rack != 0 || res.Failed[0].Epoch != 60 {
		t.Fatalf("failed = %+v, want rack 0 at epoch 60", res.Failed)
	}
	if res.Racks[0].Alive || res.Racks[0].Epochs != 60 {
		t.Errorf("rack 0 should be dead after 60 epochs, got %+v", res.Racks[0])
	}
	if res.Racks[0].Sim == nil || res.Racks[0].Sim.Epochs != 60 {
		t.Error("dead rack should carry its 60-epoch partial sim result")
	}
	if res.Rerouted == 0 {
		t.Error("killing a loaded rack should reroute its queue")
	}
	if res.Racks[1].Sim.Epochs != 120 || res.Racks[2].Sim.Epochs != 120 {
		t.Error("survivors should complete all epochs")
	}
	// The trace is spans only: the route.serve root carries the run's
	// latency quantiles, and the kill and every epoch are its children.
	var line struct {
		Event      string  `json:"event"`
		Name       string  `json:"name"`
		ID         string  `json:"id"`
		Parent     string  `json:"parent"`
		Rack       int     `json:"rack"`
		Epoch      int     `json:"epoch"`
		Requeued   int     `json:"requeued"`
		LatencyP99 float64 `json:"latency_p99"`
	}
	counts := map[string]int{}
	var rootID string
	parents := map[string][]string{} // span name -> parent IDs
	for _, raw := range bytes.Split(bytes.TrimSpace(trace), []byte("\n")) {
		line.Event, line.Name, line.Parent = "", "", ""
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatal(err)
		}
		if line.Event != "span" {
			t.Fatalf("non-span trace line %s", raw)
		}
		counts[line.Name]++
		parents[line.Name] = append(parents[line.Name], line.Parent)
		switch line.Name {
		case "route.serve":
			rootID = line.ID
			if line.LatencyP99 != res.Latency.P99 {
				t.Errorf("route.serve latency_p99 = %v, result %v", line.LatencyP99, res.Latency.P99)
			}
		case "route.rack_dead":
			if line.Rack != 0 || line.Epoch != 60 || line.Requeued == 0 {
				t.Errorf("route.rack_dead span = %+v, want rack 0 at epoch 60 with a requeued backlog", line)
			}
		}
	}
	want := map[string]int{"route.serve": 1, "route.rack_dead": 1, "route.epoch": cc.Epochs, "route.arrival": res.Arrived}
	for name, n := range want {
		if counts[name] != n {
			t.Errorf("%d %s spans, want %d", counts[name], name, n)
		}
	}
	for _, name := range []string{"route.rack_dead", "route.epoch", "route.arrival"} {
		for _, p := range parents[name] {
			if p != rootID {
				t.Fatalf("%s span parented under %q, not the route.serve root %q", name, p, rootID)
			}
		}
	}
}

// TestServeShootoutLoadAwareBeatsRoundRobin is the acceptance guard:
// on a contended, heterogeneous cluster, least-loaded and sprint-aware
// must serve at least round-robin's throughput. This is exactly the
// configuration where batch dispatch made load-aware policies 3.5x
// worse — routing inside the loop is what this test pins.
func TestServeShootoutLoadAwareBeatsRoundRobin(t *testing.T) {
	throughput := map[string]float64{}
	latP99 := map[string]float64{}
	cache := core.NewSolveCache(0, nil)
	for _, polName := range PolicyNames() {
		cc := testCluster(t, 4, 32, 300, true)
		// Equilibrium sprinting gives racks their paper capacity, so
		// the routing signal — not recovery collapse — decides the race.
		cc.Policy = cluster.EquilibriumFactory(cache)
		pol, err := ByName(polName, 0xabcd)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Serve(Config{
			Cluster:  cc,
			Arrivals: contendedArrivals(4*32, 1.0),
			Router:   pol,
		})
		if err != nil {
			t.Fatal(err)
		}
		throughput[polName] = res.Throughput
		latP99[polName] = res.Latency.P99
		if res.Latency.P50 > res.Latency.P99 || res.Latency.P99 > res.Latency.P999 {
			t.Errorf("%s: quantiles not monotone: %+v", polName, res.Latency)
		}
	}
	rr := throughput["round-robin"]
	for _, polName := range []string{"least-loaded", "sprint-aware"} {
		if throughput[polName] < rr {
			t.Errorf("%s throughput %.2f < round-robin %.2f (batch-dispatch degeneracy?)",
				polName, throughput[polName], rr)
		}
		if latP99[polName] > latP99["round-robin"] {
			t.Errorf("%s p99 %.1f epochs > round-robin %.1f on a hetero cluster",
				polName, latP99[polName], latP99["round-robin"])
		}
	}
}

func TestServeAllRacksDeadErrors(t *testing.T) {
	cc := testCluster(t, 2, 32, 50, false)
	cc.Faults = &cluster.FaultPlan{Kills: map[int]int{0: 10, 1: 20}}
	pol, _ := ByName("round-robin", 1)
	_, err := Serve(Config{Cluster: cc, Arrivals: contendedArrivals(64, 0.5), Router: pol})
	if err == nil || !strings.Contains(err.Error(), "all 2 racks dead") {
		t.Errorf("expected all-racks-dead error, got %v", err)
	}
}

func TestServeValidate(t *testing.T) {
	cc := testCluster(t, 2, 32, 50, false)
	pol, _ := ByName("random", 1)
	arr := contendedArrivals(64, 0.5)
	if _, err := Serve(Config{Cluster: cc, Router: pol}); err == nil {
		t.Error("nil arrivals should fail")
	}
	if _, err := Serve(Config{Cluster: cc, Arrivals: arr}); err == nil {
		t.Error("nil router should fail")
	}
	bad := cc
	bad.Epochs = 0
	if _, err := Serve(Config{Cluster: bad, Arrivals: arr, Router: pol}); err == nil {
		t.Error("invalid cluster config should fail")
	}
	// A rack that could never start fails the run, as in batch mode,
	// rather than being served as dead from epoch 0.
	bad = cc
	bad.Racks = append([]cluster.RackSpec{}, cc.Racks...)
	bad.Racks[1].Groups = []sim.Group{{Class: "decision", Count: 5, Bench: cc.Racks[0].Groups[0].Bench}}
	if _, err := Serve(Config{Cluster: bad, Arrivals: arr, Router: pol}); err == nil || !strings.Contains(err.Error(), "cluster: rack 1:") {
		t.Errorf("misconfigured rack: err = %v, want a rack 1 validation error", err)
	}
}

// TestServeMatchesBatchSimulation: a serving run's rack simulations are
// byte-identical to the batch engine's — serving only adds queues on
// top of the same deterministic rack games.
func TestServeMatchesBatchSimulation(t *testing.T) {
	cc := testCluster(t, 3, 32, 100, false)
	pol, _ := ByName("round-robin", 1)
	served, err := Serve(Config{Cluster: cc, Arrivals: contendedArrivals(96, 0.5), Router: pol})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := cluster.Run(cc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch.Racks {
		if !reflect.DeepEqual(served.Racks[i].Sim, batch.Racks[i].Sim) {
			t.Errorf("rack %d: serving sim result differs from batch", i)
		}
	}
}

// TestServeKillsMatchesBatch: a fault kill is one value in both engines.
// The batch engine and the serving layer stop a killed rack's stepper at
// the kill epoch and report the same RackError — rack, name, epoch,
// the bare RackFault and the partial result, series included.
// With TestServeKilledRacksStopAtKillEpoch pinning the serving partial
// to a fresh stepper, this pins the batch partial too.
func TestServeKillsMatchesBatch(t *testing.T) {
	cc := testCluster(t, 4, 32, 80, false)
	cc.RecordSeries = true
	cc.Faults = &cluster.FaultPlan{Kills: map[int]int{0: 0, 1: 37, 3: cc.Epochs - 1}}
	pol, _ := ByName("round-robin", 1)
	served, err := Serve(Config{Cluster: cc, Arrivals: contendedArrivals(128, 0.5), Router: pol})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := cluster.Run(cc)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Failed) != 3 || len(served.Failed) != len(batch.Failed) {
		t.Fatalf("failed racks: batch %d, serving %d, want 3 each", len(batch.Failed), len(served.Failed))
	}
	for j := range batch.Failed {
		b, s := batch.Failed[j], served.Failed[j]
		if !reflect.DeepEqual(b, s) {
			t.Errorf("failure %d differs:\n batch   %+v (%v)\n serving %+v (%v)", j, b, b.Err, s, s.Err)
		}
	}
}

// TestServeKilledRacksStopAtKillEpoch pins each killed rack's partial
// simulation against an independent reference: a fresh stepper built
// from the rack's config and policy factory that steps exactly the
// epochs before the kill and then finalizes. Kills land at epoch 0,
// mid-run and at the last epoch, the edges where stepping one epoch too
// far or too few shows.
func TestServeKilledRacksStopAtKillEpoch(t *testing.T) {
	cc := testCluster(t, 4, 32, 80, false)
	// serveOnce traces, which records per-epoch series; record them in
	// the reference too, so they are compared as well.
	cc.RecordSeries = true
	plan := &cluster.FaultPlan{Kills: map[int]int{0: 0, 1: 37, 3: cc.Epochs - 1}}
	kills := plan.Schedule(cc.BaseSeed, len(cc.Racks), cc.Epochs)
	for _, w := range []int{1, 2, 4} {
		res, _ := serveOnce(t, cc, "least-loaded", w, plan)
		for i, k := range kills {
			if k < 0 {
				continue
			}
			simCfg := cc.RackSimConfig(i)
			pol, err := cc.Policy(i, cc.Racks[i], simCfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := sim.NewStepper(simCfg, pol)
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < k; e++ {
				if _, err := ref.Step(); err != nil {
					t.Fatal(err)
				}
			}
			got := res.Racks[i]
			if got.Alive || got.Epochs != k {
				t.Errorf("workers=%d rack %d: alive=%v after %d epochs, want killed at %d", w, i, got.Alive, got.Epochs, k)
			}
			if !reflect.DeepEqual(got.Sim, ref.Finalize()) {
				t.Errorf("workers=%d rack %d: partial sim differs from %d reference epochs", w, i, k)
			}
		}
	}
}

// lateCalls wraps a rack's sprint policy and records any call still
// in progress after Serve has returned. From epoch slowFrom on, each
// EpochEnd first sleeps, so a stepping goroutine is mid-Step when the
// run fails.
type lateCalls struct {
	policy.Policy
	slowFrom       int
	returned, late *atomic.Bool
}

func (p *lateCalls) Decide(ctx policy.Context) bool {
	if p.returned.Load() {
		p.late.Store(true)
	}
	return p.Policy.Decide(ctx)
}

func (p *lateCalls) EpochEnd(epoch, sprinters int, tripped bool) {
	if epoch >= p.slowFrom {
		time.Sleep(5 * time.Millisecond)
	}
	if p.returned.Load() {
		p.late.Store(true)
	}
	p.Policy.EpochEnd(epoch, sprinters, tripped)
}

// failFrom routes normally until the first job of epoch from, then
// returns a rack index past the end.
type failFrom struct {
	Policy
	from int
}

func (p *failFrom) Pick(job Job, racks []cluster.RackSnapshot) int {
	if job.Epoch >= p.from {
		return len(racks)
	}
	return p.Policy.Pick(job, racks)
}

// TestServeShutdownOnError fails a run mid-way with a bad router pick
// while the workers are stepping ahead. Serve must return only after
// every stepping goroutine has exited: no rack policy is still being
// called afterwards, and the goroutine count comes back to its
// baseline.
func TestServeShutdownOnError(t *testing.T) {
	const failEpoch = 20
	cc := testCluster(t, 4, 32, 200, false)
	var returned, late atomic.Bool
	inner := cc.Policy
	cc.Policy = func(rack int, spec cluster.RackSpec, simCfg sim.Config) (policy.Policy, error) {
		pol, err := inner(rack, spec, simCfg)
		if err != nil {
			return nil, err
		}
		return &lateCalls{Policy: pol, slowFrom: failEpoch, returned: &returned, late: &late}, nil
	}
	for _, w := range []int{1, 2, 4} {
		cc.Workers = w
		returned.Store(false)
		baseline := runtime.NumGoroutine()
		_, err := Serve(Config{
			Cluster:  cc,
			Arrivals: contendedArrivals(4*32, 0.5),
			Router:   &failFrom{Policy: NewRoundRobin(), from: failEpoch},
		})
		returned.Store(true)
		if err == nil || !strings.Contains(err.Error(), "picked rack 4 of 4") {
			t.Fatalf("workers=%d: want an out-of-range pick error, got %v", w, err)
		}
		// A goroutine that has signalled its exit may still be
		// unwinding; give the count a moment to settle.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > baseline && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("workers=%d: %d goroutines after Serve returned, %d before", w, n, baseline)
		}
		if late.Load() {
			t.Fatalf("workers=%d: a rack policy was still called after Serve returned", w)
		}
	}
}

// TestServeTraceKeepsRerouteDispatches: a job rerouted off a killed
// rack keeps every route.dispatch span under its route.arrival span, in
// dispatch order. The span tree is rebuilt post-run from the engine's
// flat dispatch log, so this pins that the log's per-job grouping loses
// and reorders nothing, against references independent of the log: a
// job's first dispatch is at its arrival epoch, each reroute happens at
// the fault schedule's kill epoch of the rack that held the job, and
// the reroutes add up to Result.Rerouted.
func TestServeTraceKeepsRerouteDispatches(t *testing.T) {
	cc := testCluster(t, 4, 32, 120, false)
	plan := &cluster.FaultPlan{Kills: map[int]int{1: 40, 2: 70}}
	res, trace := serveOnce(t, cc, "least-loaded", 2, plan)
	if res.Rerouted == 0 {
		t.Fatal("the kills rerouted nothing")
	}
	kills := plan.Schedule(cc.BaseSeed, len(cc.Racks), cc.Epochs)

	type disp struct {
		Rack    int  `json:"rack"`
		Epoch   int  `json:"epoch"`
		Reroute bool `json:"reroute"`
	}
	var line struct {
		Event  string `json:"event"`
		Name   string `json:"name"`
		ID     string `json:"id"`
		Parent string `json:"parent"`
		Job    int    `json:"job"`
		disp
	}
	spans := map[string][]disp{} // arrival span ID -> dispatch spans
	type arrival struct{ job, epoch int }
	arrivals := map[string]arrival{} // arrival span ID -> job and arrival epoch
	for _, raw := range bytes.Split(bytes.TrimSpace(trace), []byte("\n")) {
		line.Event, line.Name, line.ID, line.Parent, line.Job, line.disp = "", "", "", "", -1, disp{}
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatal(err)
		}
		switch line.Name {
		case "route.dispatch":
			spans[line.Parent] = append(spans[line.Parent], line.disp)
		case "route.arrival":
			arrivals[line.ID] = arrival{line.Job, line.Epoch}
		}
	}
	if len(arrivals) != res.Arrived {
		t.Fatalf("%d route.arrival spans, %d jobs arrived", len(arrivals), res.Arrived)
	}
	rerouted := 0
	for id, arr := range arrivals {
		job, got := arr.job, spans[id]
		if len(got) == 0 {
			t.Fatalf("job %d has no dispatch span", job)
		}
		if got[0].Epoch != arr.epoch || got[0].Reroute {
			t.Errorf("job %d arrived at epoch %d but was first dispatched %+v", job, arr.epoch, got[0])
		}
		for k := 1; k < len(got); k++ {
			rerouted++
			held := got[k-1].Rack
			if !got[k].Reroute || got[k].Epoch != kills[held] || got[k].Rack == held {
				t.Errorf("job %d dispatch %d = %+v after rack %d (killed at %d), want a reroute off it at its kill epoch",
					job, k, got[k], held, kills[held])
			}
		}
	}
	if rerouted != res.Rerouted {
		t.Errorf("spans show %d reroutes, result counts %d", rerouted, res.Rerouted)
	}
}

// TestServeAllocationsDoNotGrowWithJobs guards the engine's per-job
// path: an untraced run at 8x the arrival rate may allocate only the
// extra 4096-job pages of its job table and slice growths of its
// queues, never an object per job.
func TestServeAllocationsDoNotGrowWithJobs(t *testing.T) {
	cc := testCluster(t, 4, 32, 200, false)
	cc.Workers = 2
	run := func(rate float64) (allocs float64, jobs int) {
		allocs = testing.AllocsPerRun(3, func() {
			res, err := Serve(Config{
				Cluster:  cc,
				Arrivals: &PoissonArrivals{Rate: rate, MeanUnits: 4},
				Router:   NewLeastLoaded(),
			})
			if err != nil {
				t.Fatal(err)
			}
			jobs = res.Arrived
		})
		return allocs, jobs
	}
	lowAllocs, lowJobs := run(4)
	highAllocs, highJobs := run(32)
	if highJobs-lowJobs < 5000 {
		t.Fatalf("rates gave %d and %d jobs; the comparison needs a wide gap", lowJobs, highJobs)
	}
	const slack = 64
	if highAllocs > lowAllocs+slack {
		t.Errorf("%d jobs: %.0f allocations; %d jobs: %.0f (want at most %d more)",
			highJobs, highAllocs, lowJobs, lowAllocs, slack)
	}
}

// TestServeLatencyPinned pins the serving latency a fixed run reports,
// both as Result.Latency and as the route.latency_epochs histogram in
// the cluster's metrics, against testdata/serve_latency.json. The run
// kills a loaded rack, so rerouted jobs feed the tail.
func TestServeLatencyPinned(t *testing.T) {
	cc := testCluster(t, 3, 32, 120, false)
	cc.Metrics = telemetry.NewRegistry()
	res, _ := serveOnce(t, cc, "round-robin", 2, &cluster.FaultPlan{Kills: map[int]int{0: 60}})
	if res.Rerouted == 0 {
		t.Fatal("the kill should reroute jobs")
	}
	type pin struct {
		Latency   LatencySummary
		Histogram telemetry.HistogramSnapshot
	}
	got := pin{res.Latency, cc.Metrics.Snapshot().Histograms["route.latency_epochs"]}
	raw, err := os.ReadFile("testdata/serve_latency.json")
	if err != nil {
		t.Fatal(err)
	}
	var want pin
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		gotJSON, _ := json.Marshal(got)
		t.Fatalf("serving latency changed:\n got %s\nwant %s", gotJSON, raw)
	}
}
