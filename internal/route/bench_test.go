package route

import (
	"testing"

	"sprintgame/internal/cluster"
	"sprintgame/internal/core"
)

// benchCluster is the route-sim shape: 8 racks whose pairs split 64
// chips 1:3, 600 epochs, equilibrium sprinting on every rack, 2
// workers.
func benchCluster(tb testing.TB) cluster.Config {
	cc := testCluster(tb, 8, 64, 600, true)
	cc.BaseSeed = 1
	cc.Workers = 2
	return cc
}

// BenchmarkServe measures one untraced serving run per policy on the
// route-sim shape: a Poisson stream at nominal capacity (~77k jobs).
// Each iteration builds a fresh solve cache, so it pays the racks' two
// equilibrium solves like a bench leg does. scripts/bench.sh records
// it, allocs/op included, in BENCH_cluster.json.
func BenchmarkServe(b *testing.B) {
	for _, name := range PolicyNames() {
		b.Run(name, func(b *testing.B) {
			cc := benchCluster(b)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cc.Policy = cluster.EquilibriumFactory(core.NewSolveCache(0, nil))
				pol, err := ByName(name, cluster.MixSeed(cc.BaseSeed, -3)^0x5eed)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Serve(Config{
					Cluster:  cc,
					Arrivals: &PoissonArrivals{Rate: 128, MeanUnits: 4},
					Router:   pol,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
