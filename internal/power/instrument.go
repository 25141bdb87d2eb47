package power

import "sprintgame/internal/telemetry"

// InstrumentedTripModel wraps a TripModel with metrics: every Ptrip
// evaluation bumps power.ptrip_evals and publishes the evaluated
// probability as the power.ptrip gauge. The sim and solver both
// evaluate the trip model on their hot paths, so wrapping is opt-in;
// Instrument with a nil registry returns the model unwrapped.
type InstrumentedTripModel struct {
	Model   TripModel
	Metrics *telemetry.Registry
}

// Instrument wraps m with a metrics registry. A nil registry returns
// the model as-is, keeping the disabled path allocation- and
// indirection-free.
func Instrument(m TripModel, reg *telemetry.Registry) TripModel {
	if reg == nil {
		return m
	}
	return InstrumentedTripModel{Model: m, Metrics: reg}
}

// Ptrip evaluates the wrapped model and records the result.
func (m InstrumentedTripModel) Ptrip(nSprinters float64) float64 {
	p := m.Model.Ptrip(nSprinters)
	m.Metrics.Counter("power.ptrip_evals").Inc()
	m.Metrics.Gauge("power.ptrip").Set(p)
	return p
}

// Bounds delegates to the wrapped model.
func (m InstrumentedTripModel) Bounds() (float64, float64) { return m.Model.Bounds() }
