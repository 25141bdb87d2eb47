package power

import (
	"testing"

	"sprintgame/internal/telemetry"
)

func TestInstrumentPassthroughWhenDisabled(t *testing.T) {
	m := PaperTripModel()
	got := Instrument(m, nil)
	if got != TripModel(m) {
		t.Errorf("Instrument with a nil registry should return the model unchanged, got %T", got)
	}
}

func TestInstrumentedTripModelRecords(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := Instrument(PaperTripModel(), reg)

	if p := m.Ptrip(0); p != 0 {
		t.Errorf("Ptrip(0) = %v", p)
	}
	if p := m.Ptrip(500); p != 0.5 {
		t.Errorf("Ptrip(500) = %v", p)
	}
	if got := reg.Counter("power.ptrip_evals").Value(); got != 2 {
		t.Errorf("ptrip_evals = %d", got)
	}
	if got := reg.Gauge("power.ptrip").Value(); got != 0.5 {
		t.Errorf("ptrip gauge = %v", got)
	}
	lo, hi := m.Bounds()
	if lo != 250 || hi != 750 {
		t.Errorf("bounds = %v, %v", lo, hi)
	}
	im, ok := m.(InstrumentedTripModel)
	if !ok {
		t.Fatalf("expected InstrumentedTripModel, got %T", m)
	}
	if im.Model != TripModel(PaperTripModel()) {
		t.Error("the wrapper should hold the wrapped model")
	}
}
