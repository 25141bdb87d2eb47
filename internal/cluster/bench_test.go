package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"sprintgame/internal/core"
)

// Note: on a single-core machine all worker counts collapse to the
// serial time; the near-linear scaling claim is about multi-core hosts,
// where racks (which share no state) spread across the pool.

// BenchmarkClusterEpochs measures the worker-pool epoch engine on an
// 8-rack cluster. Racks are independent, so wall-clock time should
// shrink near-linearly from workers=1 up to min(8, NumCPU); on a
// single-core machine all worker counts collapse to the serial time.
// scripts/bench.sh records these numbers as BENCH_cluster.json.
func BenchmarkClusterEpochs(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := testCluster(b, 8, 64, 2000, "decision", "pagerank")
			cfg.Policy = GreedyFactory()
			cfg.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterEquilibriumCached measures end-to-end cluster setup
// with the memoized solver: 8 racks over 2 distinct mixes perform 2
// solves instead of 8.
func BenchmarkClusterEquilibriumCached(b *testing.B) {
	for _, cached := range []bool{false, true} {
		b.Run(fmt.Sprintf("cached=%v", cached), func(b *testing.B) {
			cfg := testCluster(b, 8, 64, 50, "decision", "pagerank")
			cfg.Workers = runtime.NumCPU()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var cache *core.SolveCache
				if cached {
					cache = core.NewSolveCache(16, nil)
				}
				cfg.Policy = EquilibriumFactory(cache)
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
