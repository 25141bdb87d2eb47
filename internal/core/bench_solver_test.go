package core

import (
	"fmt"
	"testing"

	"sprintgame/internal/dist"
	"sprintgame/internal/power"
)

// benchDensity builds a synthetic density with the given atom count
// (mirrors cacheInstance's shape so results compare across benchmarks).
func benchDensity(b *testing.B, atoms int) *dist.Discrete {
	b.Helper()
	values := make([]float64, atoms)
	weights := make([]float64, atoms)
	for i := range values {
		values[i] = 1 + 7*float64(i)/float64(atoms-1)
		weights[i] = 1 + float64(i%5)
	}
	d, err := dist.NewDiscrete(values, weights)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkSolveBellman measures one exact dynamic-program solve (Eqs.
// 1-8), the inner step of Algorithm 1, on small and large densities: a
// binary search over the density's segments, O(log n).
func BenchmarkSolveBellman(b *testing.B) {
	for _, atoms := range []int{64, 250, 1024} {
		f := benchDensity(b, atoms)
		b.Run(fmt.Sprintf("atoms=%d", atoms), func(b *testing.B) {
			cfg := DefaultConfig()
			for i := 0; i < b.N; i++ {
				if _, err := SolveBellman(f, 0.1, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchClasses builds a heterogeneous k-class rack over shifted
// densities, 64 agents total.
func benchClasses(b *testing.B, k, atoms int) ([]AgentClass, Config) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.N = 64
	cfg.Trip = power.LinearTripModel{NMin: 16, NMax: 48}
	per := cfg.N / k
	classes := make([]AgentClass, k)
	for c := 0; c < k; c++ {
		values := make([]float64, atoms)
		weights := make([]float64, atoms)
		for i := range values {
			values[i] = 1 + 0.3*float64(c) + 7*float64(i)/float64(atoms-1)
			weights[i] = 1 + float64((i+c)%5)
		}
		d, err := dist.NewDiscrete(values, weights)
		if err != nil {
			b.Fatal(err)
		}
		count := per
		if c == k-1 {
			count = cfg.N - per*(k-1)
		}
		classes[c] = AgentClass{Name: fmt.Sprintf("class-%d", c), Count: count, Density: d}
	}
	return classes, cfg
}

// BenchmarkFindEquilibriumColdClasses measures cold Algorithm 1 runs
// over 1/4/8-class racks.
func BenchmarkFindEquilibriumColdClasses(b *testing.B) {
	for _, k := range []int{1, 4, 8} {
		classes, cfg := benchClasses(b, k, 250)
		b.Run(fmt.Sprintf("classes=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := FindEquilibrium(classes, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
