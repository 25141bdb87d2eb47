// Heterogeneous rack: a multi-tenant datacenter where different users run
// different analytics applications on a shared power supply. The
// coordinator collects per-agent profiles over the wire (the Figure 4
// deployment), solves the game, and assigns each class a tailored
// threshold; we then simulate the mixed rack.
//
// Run with:
//
//	go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"

	"sprintgame/internal/coord"
	"sprintgame/internal/core"
	"sprintgame/internal/policy"
	"sprintgame/internal/sim"
	"sprintgame/internal/workload"
)

func main() {
	// A mixed tenant population: memory-heavy graph analytics next to
	// narrow-profile regression jobs.
	tenants := map[string]int{
		"pagerank": 300,
		"decision": 300,
		"svm":      200,
		"linear":   200,
	}

	// Start a coordinator and serve it over TCP on the loopback, as the
	// management framework in Figure 4 would.
	c, err := coord.NewCoordinator(core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	srv, err := coord.Serve(c, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("coordinator listening on %s\n", srv.Addr())
	client := coord.NewClient(srv.Addr())

	// Each tenant profiles a few representative agents and submits their
	// utility histograms. (Profiling every agent works too; class
	// profiles are pooled.)
	seed := uint64(1)
	for name, count := range tenants {
		bench, err := workload.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < count; i++ {
			seed++
			agent, err := coord.NewAgent(fmt.Sprintf("%s-%d", name, i), bench, seed)
			if err != nil {
				log.Fatal(err)
			}
			profile, err := agent.ProfileEpochs(300, 60)
			if err != nil {
				log.Fatal(err)
			}
			if err := client.SubmitProfile(profile); err != nil {
				log.Fatal(err)
			}
		}
	}

	// The coordinator runs Algorithm 1 over the pooled profiles.
	strategies, ptrip, err := client.FetchStrategies()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("equilibrium Ptrip = %.4f\n", ptrip)
	thresholds := map[string]float64{}
	for name, s := range strategies {
		fmt.Printf("  %-10s %3d agents: threshold %.2f (ps=%.2f)\n",
			name, s.Agents, s.Threshold, s.SprintProb)
		thresholds[name] = s.Threshold
	}

	// Simulate the mixed rack under the assigned strategies.
	game := core.DefaultConfig()
	groups := make([]sim.Group, 0, len(tenants))
	for _, name := range []string{"pagerank", "decision", "svm", "linear"} {
		bench, _ := workload.ByName(name)
		groups = append(groups, sim.Group{Class: name, Count: tenants[name], Bench: bench})
	}
	pol, err := policy.NewThreshold("equilibrium-threshold", thresholds)
	if err != nil {
		log.Fatal(err)
	}
	cfg := sim.Config{Epochs: 1000, Seed: 7, Game: game, Groups: groups}
	res, err := sim.Run(cfg, pol)
	if err != nil {
		log.Fatal(err)
	}
	greedy, err := sim.Run(cfg, policy.NewGreedy(8))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nmixed-rack results over %d epochs:\n", cfg.Epochs)
	fmt.Printf("  equilibrium: rate=%.2f, %d emergencies\n", res.TaskRate, res.Trips)
	fmt.Printf("  greedy:      rate=%.2f, %d emergencies\n", greedy.TaskRate, greedy.Trips)
	fmt.Printf("  speedup over greedy: %.1fx\n", res.TaskRate/greedy.TaskRate)
	for _, g := range res.Groups {
		fmt.Printf("  %-10s rate=%.2f, mean sprint utility %.1f\n",
			g.Class, g.TaskRate, g.MeanSprintUtility)
	}
}
