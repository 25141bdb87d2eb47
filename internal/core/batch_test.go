package core

import (
	"reflect"
	"testing"

	"sprintgame/internal/dist"
	"sprintgame/internal/power"
)

// batchRequests builds a mixed batch over the catalog densities: single-
// and multi-class instances, varying configs (trip model, damping) and
// a warm start, with some instances sharing densities.
func batchRequests(t *testing.T) []SolveRequest {
	t.Helper()
	densities := catalogDensities(t, 250)
	names := make([]string, 0, len(densities))
	for name := range densities {
		names = append(names, name)
	}
	var reqs []SolveRequest
	// One single-class instance per density, default config.
	for _, name := range names {
		cfg := DefaultConfig()
		reqs = append(reqs, SolveRequest{
			Classes: []AgentClass{{Name: name, Count: cfg.N, Density: densities[name]}},
			Cfg:     cfg,
		})
	}
	// Same densities again under a different trip model (distinct
	// instances sharing prefix sums with the ones above).
	for _, name := range names {
		cfg := DefaultConfig()
		cfg.Trip = power.LinearTripModel{NMin: 200, NMax: 900}
		reqs = append(reqs, SolveRequest{
			Classes: []AgentClass{{Name: name, Count: cfg.N, Density: densities[name]}},
			Cfg:     cfg,
		})
	}
	// A heterogeneous multi-class instance.
	if len(names) >= 2 {
		cfg := DefaultConfig()
		cfg.N = 1000
		reqs = append(reqs, SolveRequest{
			Classes: []AgentClass{
				{Name: names[0], Count: 600, Density: densities[names[0]]},
				{Name: names[1], Count: 400, Density: densities[names[1]]},
			},
			Cfg: cfg,
		})
	}
	// A damped instance and a warm-started one.
	cfg := DefaultConfig()
	cfg.Damping = 0.5
	reqs = append(reqs, SolveRequest{
		Classes: []AgentClass{{Name: names[0], Count: cfg.N, Density: densities[names[0]]}},
		Cfg:     cfg,
	})
	cfg = DefaultConfig()
	reqs = append(reqs, SolveRequest{
		Classes: []AgentClass{{Name: names[0], Count: cfg.N, Density: densities[names[0]]}},
		Cfg:     cfg,
		Warm:    &WarmStart{Ptrip: 0.9},
	})
	return reqs
}

// TestSolveBatchDifferential pins the batch contract: SolveBatch must
// return byte-identical equilibria to calling FindEquilibriumWarm once
// per request — thresholds, Ptrip, iteration counts, and the full
// residual trajectories.
func TestSolveBatchDifferential(t *testing.T) {
	reqs := batchRequests(t)
	results := SolveBatch(reqs)
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	for i, r := range reqs {
		want, wantErr := FindEquilibriumWarm(r.Classes, r.Cfg, r.Warm)
		got, gotErr := results[i].Eq, results[i].Err
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("request %d: error mismatch: batch=%v percall=%v", i, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("request %d (%s): batch result differs from per-call:\n batch   %+v\n percall %+v",
				i, r.Classes[0].Name, got, want)
		}
	}
}

// TestSolveBatchErrors checks per-request validation: bad requests fail
// with FindEquilibrium's exact messages while healthy requests in the
// same batch still solve.
func TestSolveBatchErrors(t *testing.T) {
	f := dist.MustDiscrete([]float64{1, 2, 3}, []float64{1, 1, 1})
	good := DefaultConfig()
	bad := DefaultConfig()
	bad.N = 999 // class counts won't sum to N
	reqs := []SolveRequest{
		{Classes: []AgentClass{{Name: "ok", Count: good.N, Density: f}}, Cfg: good},
		{Classes: []AgentClass{{Name: "mismatch", Count: 1000, Density: f}}, Cfg: bad},
		{Classes: nil, Cfg: good},
		{Classes: []AgentClass{{Name: "empty", Count: good.N, Density: nil}}, Cfg: good},
	}
	results := SolveBatch(reqs)
	if results[0].Err != nil || results[0].Eq == nil {
		t.Fatalf("healthy request failed: %v", results[0].Err)
	}
	for i := 1; i < len(reqs); i++ {
		if results[i].Err == nil {
			t.Errorf("request %d should have failed", i)
			continue
		}
		_, wantErr := FindEquilibrium(reqs[i].Classes, reqs[i].Cfg)
		if wantErr == nil || results[i].Err.Error() != wantErr.Error() {
			t.Errorf("request %d: batch error %q, per-call error %v", i, results[i].Err, wantErr)
		}
	}
}

// TestSolveBatchEmpty checks the trivial boundaries.
func TestSolveBatchEmpty(t *testing.T) {
	if res := SolveBatch(nil); len(res) != 0 {
		t.Errorf("nil batch returned %d results", len(res))
	}
	if res := SolveBatch([]SolveRequest{}); len(res) != 0 {
		t.Errorf("empty batch returned %d results", len(res))
	}
}

// BenchmarkSolveBatch compares batched against per-call solving for a
// sweep-shaped workload: many single-class instances over a handful of
// shared densities.
func BenchmarkSolveBatch(b *testing.B) {
	f1 := dist.MustDiscrete([]float64{1, 2, 3, 5, 8, 13, 21}, []float64{1, 3, 6, 8, 6, 3, 1})
	f2 := f1.Shift(0.5)
	const insts = 16
	reqs := make([]SolveRequest, insts)
	for i := range reqs {
		cfg := DefaultConfig()
		cfg.N = 400 + 25*i
		f := f1
		if i%2 == 1 {
			f = f2
		}
		reqs[i] = SolveRequest{
			Classes: []AgentClass{{Name: "bench", Count: cfg.N, Density: f}},
			Cfg:     cfg,
		}
	}
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := SolveBatch(reqs)
			if res[0].Err != nil {
				b.Fatal(res[0].Err)
			}
		}
	})
	b.Run("percall", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range reqs {
				if _, err := FindEquilibrium(r.Classes, r.Cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
