// Cluster quickstart: simulate a small datacenter of 8 sprinting racks
// with heterogeneous per-rack workload mixes, solved through a shared
// equilibrium cache so racks with the same mix solve the game once.
//
// Run with:
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"sprintgame/internal/cluster"
	"sprintgame/internal/core"
	"sprintgame/internal/power"
	"sprintgame/internal/sim"
	"sprintgame/internal/workload"
)

func main() {
	const (
		racks  = 8
		chips  = 64 // per rack
		epochs = 500
	)

	// 1. A rack-sized game: the paper's Table 2 breaker scaled to 64
	//    chips (Nmin=16, Nmax=48).
	game := core.DefaultConfig()
	game.N = chips
	game.Trip = power.LinearTripModel{NMin: 16, NMax: 48}

	// 2. Heterogeneous racks: three workload mixes spread over 8 racks.
	//    Racks sharing a mix will share one cached equilibrium solve.
	mixes := [][]string{
		{"decision", "pagerank"}, // racks 0, 3, 6
		{"linear"},               // racks 1, 4, 7
		{"kmeans", "als"},        // racks 2, 5
	}
	specs := make([]cluster.RackSpec, racks)
	for r := range specs {
		names := mixes[r%len(mixes)]
		groups := make([]sim.Group, 0, len(names))
		remaining := chips
		for i, name := range names {
			b, err := workload.ByName(name)
			if err != nil {
				log.Fatal(err)
			}
			count := remaining / (len(names) - i)
			remaining -= count
			groups = append(groups, sim.Group{Class: b.Name, Count: count, Bench: b})
		}
		specs[r] = cluster.RackSpec{Name: fmt.Sprintf("rack%d/%s", r, names[0]), Groups: groups}
	}

	// 3. Run the cluster: each rack solves its game through the shared
	//    cache (3 distinct mixes -> 3 solves for 8 racks) and then
	//    simulates under its equilibrium-threshold policy.
	cache := core.NewSolveCache(core.DefaultSolveCacheCapacity, nil)
	res, err := cluster.Run(cluster.Config{
		Racks:    specs,
		Epochs:   epochs,
		BaseSeed: 42,
		Game:     game,
		Policy:   cluster.EquilibriumFactory(cache),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("cluster: %d racks x %d chips x %d epochs (%d workers)\n",
		racks, chips, epochs, res.Workers)
	for _, r := range res.Racks {
		fmt.Printf("  %-16s rate=%.3f trips=%2d sprinting=%.1f%%\n",
			r.Name, r.Sim.TaskRate, r.Sim.Trips, 100*r.Sim.Shares.Sprinting)
	}
	fmt.Printf("\ncluster task rate: %.3f units/agent-epoch, %d emergencies (%.4f per rack-epoch)\n",
		res.TaskRate, res.Trips, res.TripsPerRackEpoch)
	fmt.Printf("sprinters per rack-epoch: mean=%.1f stddev=%.1f [%.1f, %.1f]\n",
		res.Sprinters.Mean, res.Sprinters.StdDev, res.Sprinters.Min, res.Sprinters.Max)

	st := cache.Stats()
	fmt.Printf("solve cache: %d solves for %d racks, %d reused (hit rate %.0f%%)\n",
		st.Misses, racks, st.Hits+st.Coalesced, 100*st.HitRate())
}
