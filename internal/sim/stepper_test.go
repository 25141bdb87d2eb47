package sim

import (
	"bytes"
	"errors"
	"fmt"
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
// an interrupted Run's partial Result over the same k epochs.
func TestStepperPartialMatchesInterruptedRun(t *testing.T) {
	const k = 60
	cfg := smallConfig(t, "pagerank", 200)
	cfg.RecordSeries = true

	intCfg := cfg
	cause := errors.New("halt")
	intCfg.Interrupt = func(epoch int) error {
		if epoch >= k {
			return cause
		}
		return nil
	}
	want, err := Run(intCfg, policy.NewGreedy(1))
	var ie *InterruptError
	if !errors.As(err, &ie) || ie.Epoch != k {
		t.Fatalf("expected interrupt at %d, got %v", k, err)
	}

	st, err := NewStepper(cfg, policy.NewGreedy(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got := st.Finalize()
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Errorf("partial results differ:\n got %+v\nwant %+v", got, want)
	}
}

func TestStepperErrors(t *testing.T) {
	cfg := smallConfig(t, "decision", 3)
	if _, err := NewStepper(Config{}, policy.NewGreedy(1)); err == nil {
		t.Error("invalid config should fail")
	}
	bad := cfg
	bad.Interrupt = func(int) error { return nil }
	if _, err := NewStepper(bad, policy.NewGreedy(1)); err == nil {
		t.Error("Interrupt hook should be rejected")
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
