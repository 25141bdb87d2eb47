package core

import (
	"testing"

	"sprintgame/internal/power"
)

// TestConfigScaled pins the one trip-model rescale the commands share:
// the paper's (N, Nmin, Nmax) = (1000, 250, 750) at 256 chips trips
// over the same share of the rack, and a same-size rescale is a no-op
// that keeps the original trip model.
func TestConfigScaled(t *testing.T) {
	base := DefaultConfig()
	got := base.Scaled(256)
	if got.N != 256 {
		t.Errorf("N = %d, want 256", got.N)
	}
	want := power.LinearTripModel{NMin: 250 * 0.256, NMax: 750 * 0.256}
	if got.Trip != want {
		t.Errorf("trip = %+v, want %+v", got.Trip, want)
	}
	if got.Pc != base.Pc || got.Pr != base.Pr || got.Delta != base.Delta {
		t.Error("Scaled changed a parameter other than N and the trip model")
	}

	curve := base
	curve.Trip = power.CurveTripModel{}
	if same := curve.Scaled(curve.N); same.Trip != curve.Trip || same.N != curve.N {
		t.Errorf("same-size Scaled = %+v, want the config unchanged", same)
	}
}
