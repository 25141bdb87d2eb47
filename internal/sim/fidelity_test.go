//go:build !race

package sim

import (
	"testing"

	"sprintgame/internal/core"
	"sprintgame/internal/workload"
)

// TestFidelityPredictedVsRealized runs every catalog benchmark as one
// homogeneous rack at 32, 96 and 1000 chips under the equilibrium
// policy and logs what the mean-field equilibrium predicts next to what
// the rack does: sprinters per epoch (Eq. 10), the active agent's
// sprint probability ps, the active fraction pA, and Ptrip against the
// realized trips per epoch. It bounds nothing yet; it is the
// measurement the model-gap work is judged against. Run it with
// -v to see the table. It is left out of race builds: a single-goroutine
// probe gives the race detector nothing to check and runs ten times
// slower under it.
func TestFidelityPredictedVsRealized(t *testing.T) {
	if testing.Short() {
		t.Skip("20 000-epoch racks over the catalog")
	}
	const (
		epochs = 20000
		seed   = 3
	)
	t.Log("bench, N | sprinters pred → real | ps pred → real | pA pred → real | Ptrip pred → trips/epoch")
	for _, b := range workload.Catalog() {
		for _, n := range []int{32, 96, 1000} {
			game := core.DefaultConfig().Scaled(n)
			cfg := Config{
				Epochs: epochs,
				Seed:   seed,
				Game:   game,
				Groups: []Group{{Class: b.Name, Count: n, Bench: b}},
			}
			pol, eq, err := BuildEquilibriumPolicy(cfg)
			if err != nil {
				t.Fatalf("%s, N=%d: %v", b.Name, n, err)
			}
			res, err := Run(cfg, pol)
			if err != nil {
				t.Fatalf("%s, N=%d: %v", b.Name, n, err)
			}
			sh := res.Shares
			active := sh.Sprinting + sh.ActiveIdle
			ps, pA := 0.0, 0.0
			if active > 0 {
				ps = sh.Sprinting / active
			}
			if noRecovery := active + sh.Cooling; noRecovery > 0 {
				pA = active / noRecovery
			}
			c := eq.Classes[0]
			t.Logf("%s, %d | %.2f → %.2f | %.3f → %.3f | %.3f → %.3f | %.4f → %.4f",
				b.Name, n, eq.Sprinters, sh.Sprinting*float64(n),
				c.SprintProb, ps, c.ActiveFrac, pA,
				eq.Ptrip, float64(res.Trips)/float64(res.Epochs))
		}
	}
}
