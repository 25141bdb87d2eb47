package route

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sprintgame/internal/cluster"
	"sprintgame/internal/core"
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
// for Workers in {1, 4, NumCPU} — with and without an active fault
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
			for _, w := range []int{4, runtime.NumCPU()} {
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
	// A round-robin policy never routes to the corpse after the kill:
	// the trace records every dispatch.
	s := string(trace)
	if !strings.Contains(s, `"route.rack_dead"`) {
		t.Error("trace missing route.rack_dead event")
	}
	for _, ev := range []string{`"route.arrival"`, `"route.dispatch"`, `"route.epoch"`, `"route.done"`, `"route.serve"`} {
		if !strings.Contains(s, ev) {
			t.Errorf("trace missing %s", ev)
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

// TestServeTraceKeepsRerouteDispatches: a job rerouted off a killed
// rack keeps both route.dispatch spans under its route.arrival span, in
// the order the live route.dispatch events recorded them. The span tree
// is rebuilt post-run from the engine's flat dispatch log, so this pins
// that the log's per-job grouping loses and reorders nothing.
func TestServeTraceKeepsRerouteDispatches(t *testing.T) {
	cc := testCluster(t, 4, 32, 120, false)
	plan := &cluster.FaultPlan{Kills: map[int]int{1: 40, 2: 70}}
	res, trace := serveOnce(t, cc, "least-loaded", 2, plan)
	if res.Rerouted == 0 {
		t.Fatal("the kills rerouted nothing")
	}

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
	live := map[int][]disp{}       // job -> route.dispatch events
	spans := map[string][]disp{}   // arrival span ID -> dispatch spans
	arrivalJob := map[string]int{} // arrival span ID -> job
	for _, raw := range bytes.Split(bytes.TrimSpace(trace), []byte("\n")) {
		line.Event, line.Name, line.ID, line.Parent, line.Job, line.disp = "", "", "", "", -1, disp{}
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatal(err)
		}
		switch {
		case line.Event == "route.dispatch":
			live[line.Job] = append(live[line.Job], line.disp)
		case line.Event == "span" && line.Name == "route.dispatch":
			spans[line.Parent] = append(spans[line.Parent], line.disp)
		case line.Event == "span" && line.Name == "route.arrival":
			arrivalJob[line.ID] = line.Job
		}
	}
	if len(arrivalJob) != res.Arrived {
		t.Fatalf("%d route.arrival spans, %d jobs arrived", len(arrivalJob), res.Arrived)
	}
	rerouted := 0
	for id, job := range arrivalJob {
		got, want := spans[id], live[job]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("job %d: dispatch spans %+v, live dispatches %+v", job, got, want)
		}
		if len(got) < 2 {
			continue
		}
		rerouted += len(got) - 1
		if got[0].Reroute || !got[len(got)-1].Reroute || got[0].Rack == got[1].Rack {
			t.Errorf("job %d: dispatches %+v, want a first dispatch then reroutes to another rack", job, got)
		}
	}
	if rerouted != res.Rerouted {
		t.Errorf("spans show %d reroutes, result counts %d", rerouted, res.Rerouted)
	}
}

// TestServeAllocationsDoNotGrowWithJobs guards the engine's per-job
// path: an untraced run at 8x the arrival rate may allocate only the
// few extra slice growths of its job table and queues, never an object
// per job.
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
