package sim

import (
	"bytes"
	"reflect"
	"testing"

	"sprintgame/internal/policy"
	"sprintgame/internal/telemetry"
)

// TestStepperMatchesRun is the contract the serving layer depends on:
// stepping a Stepper to completion produces a Result byte-identical to
// sim.Run over the same Config — including traces, since both drive the
// same runState.
func TestStepperMatchesRun(t *testing.T) {
	cfg := smallConfig(t, "decision", 150)
	cfg.RecordSeries = true
	cfg.TrackAgents = []int{0, 7, 99}

	var runBuf, stepBuf bytes.Buffer
	runCfg := cfg
	runCfg.Span = telemetry.NewTracer(&runBuf).StartSpan("test", "t")
	want, err := Run(runCfg, policy.NewGreedy(1))
	if err != nil {
		t.Fatal(err)
	}

	stepCfg := cfg
	stepCfg.Span = telemetry.NewTracer(&stepBuf).StartSpan("test", "t")
	st, err := NewStepper(stepCfg, policy.NewGreedy(1))
	if err != nil {
		t.Fatal(err)
	}
	totalUnits := 0.0
	for i := 0; i < cfg.Epochs; i++ {
		es, err := st.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if es.Epoch != i {
			t.Fatalf("step %d reported epoch %d", i, es.Epoch)
		}
		totalUnits += es.Units
	}
	if st.Completed() != cfg.Epochs {
		t.Fatalf("Completed() = %d, want %d", st.Completed(), cfg.Epochs)
	}
	got := st.Finalize()

	if !reflect.DeepEqual(got, want) {
		t.Errorf("stepped result differs from Run:\n got %+v\nwant %+v", got, want)
	}
	if !bytes.Equal(runBuf.Bytes(), stepBuf.Bytes()) {
		t.Error("stepped trace differs from Run trace")
	}
	// EpochStats.Units must account for exactly the run's production.
	wantUnits := want.TaskRate * float64(cfg.Game.N) * float64(cfg.Epochs)
	if diff := totalUnits - wantUnits; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("summed EpochStats.Units = %g, Result implies %g", totalUnits, wantUnits)
	}
}

// TestStepperPartialMatchesInterruptedRun: Finalize after k steps equals
// Run's Result over a k-epoch Config, series included. A killed rack's
// partial is therefore exactly the run it would have had with k epochs.
func TestStepperPartialMatchesInterruptedRun(t *testing.T) {
	const k = 60
	cfg := smallConfig(t, "pagerank", 200)
	cfg.RecordSeries = true

	short := cfg
	short.Epochs = k
	want, err := Run(short, policy.NewGreedy(1))
	if err != nil {
		t.Fatal(err)
	}

	got := stepPartial(t, cfg, k)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("partial results differ:\n got %+v\nwant %+v", got, want)
	}
}

// stepPartial steps a fresh Stepper over cfg k times under a greedy
// policy and finalizes it.
func stepPartial(t *testing.T, cfg Config, k int) *Result {
	t.Helper()
	st, err := NewStepper(cfg, policy.NewGreedy(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return st.Finalize()
}

// TestStepperPartialIsRunPrefix: stopping early must not perturb any RNG
// draw, so the partial series is the prefix of the full run's.
func TestStepperPartialIsRunPrefix(t *testing.T) {
	const k = 80
	cfg := smallConfig(t, "decision", 200)
	cfg.RecordSeries = true
	ref, err := Run(cfg, policy.NewGreedy(1))
	if err != nil {
		t.Fatal(err)
	}

	res := stepPartial(t, cfg, k)
	if res.Epochs != k {
		t.Errorf("partial epochs = %d, want %d", res.Epochs, k)
	}
	if !reflect.DeepEqual(res.SprintersPerEpoch, ref.SprintersPerEpoch[:k]) ||
		!reflect.DeepEqual(res.RecoveringPerEpoch, ref.RecoveringPerEpoch[:k]) {
		t.Errorf("partial series are not the first %d epochs of the full run", k)
	}
	if s := res.Shares.Sum(); s < 0.999 || s > 1.001 {
		t.Errorf("partial shares sum to %v, want 1", s)
	}
}

// TestStepperFinalizeAfterZeroSteps: a rack killed before its first
// epoch reports zero rates and empty series, never NaN.
func TestStepperFinalizeAfterZeroSteps(t *testing.T) {
	cfg := smallConfig(t, "decision", 50)
	cfg.RecordSeries = true
	cfg.TrackAgents = []int{0}
	res := stepPartial(t, cfg, 0)
	if res.Epochs != 0 {
		t.Fatalf("zero-step partial epochs = %d, want 0", res.Epochs)
	}
	if res.TaskRate != 0 || res.Shares.Sum() != 0 {
		t.Errorf("zero-epoch partial must report zero rates, got rate=%v shares=%v",
			res.TaskRate, res.Shares)
	}
	if got := res.AgentRates[0]; got != 0 {
		t.Errorf("tracked agent rate = %v, want 0", got)
	}
	if len(res.SprintersPerEpoch) != 0 || len(res.RecoveringPerEpoch) != 0 {
		t.Errorf("series lengths = %d/%d, want 0",
			len(res.SprintersPerEpoch), len(res.RecoveringPerEpoch))
	}
}

func TestStepperErrors(t *testing.T) {
	cfg := smallConfig(t, "decision", 3)
	if _, err := NewStepper(Config{}, policy.NewGreedy(1)); err == nil {
		t.Error("invalid config should fail")
	}
	st, err := NewStepper(cfg, policy.NewGreedy(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Epochs; i++ {
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Step(); err == nil {
		t.Error("stepping past Epochs should error")
	}
	a := st.Finalize()
	if b := st.Finalize(); a != b {
		t.Error("Finalize should be idempotent")
	}
	if _, err := st.Step(); err == nil {
		t.Error("Step after Finalize should error")
	}
}
