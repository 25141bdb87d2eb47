package coord

import (
	"errors"
	"fmt"

	"sprintgame/internal/dist"
	"sprintgame/internal/workload"
)

// Predictor estimates a sprint's utility at the start of an epoch (§4.4,
// Online Strategy: "An agent decides whether to sprint at the start of
// each epoch by estimating a sprint's utility").
type Predictor interface {
	// Predict returns the estimated utility for the upcoming epoch.
	Predict() float64
	// Observe feeds back the epoch's realized utility.
	Observe(actual float64)
}

// EWMAPredictor predicts the next epoch's utility as an exponentially
// weighted moving average of recent utilities. Application phases persist
// across epochs, so recent history is informative — the hardware-counter
// heuristics the paper sketches reduce to exactly this kind of smoothed
// recency signal.
type EWMAPredictor struct {
	alpha   float64
	est     float64
	primed  bool
	initial float64
}

// NewEWMAPredictor returns a predictor with smoothing factor alpha in
// (0, 1]; larger alpha weights recent epochs more. initial seeds the
// estimate before any observation.
func NewEWMAPredictor(alpha, initial float64) (*EWMAPredictor, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("coord: alpha %v outside (0, 1]", alpha)
	}
	return &EWMAPredictor{alpha: alpha, initial: initial}, nil
}

// Predict implements Predictor.
func (p *EWMAPredictor) Predict() float64 {
	if !p.primed {
		return p.initial
	}
	return p.est
}

// Observe implements Predictor.
func (p *EWMAPredictor) Observe(actual float64) {
	if !p.primed {
		p.est = actual
		p.primed = true
		return
	}
	p.est = p.alpha*actual + (1-p.alpha)*p.est
}

// OraclePredictor returns the true utility; it models the paper's
// first-seconds-of-epoch profiling, which measures the sprint benefit
// directly before committing.
type OraclePredictor struct {
	next float64
}

// SetTruth primes the oracle with the epoch's true utility.
func (o *OraclePredictor) SetTruth(u float64) { o.next = u }

// Predict implements Predictor.
func (o *OraclePredictor) Predict() float64 { return o.next }

// Observe implements Predictor.
func (o *OraclePredictor) Observe(float64) {}

// Agent is a user's run-time agent: it profiles its workload, reports to
// the coordinator, and applies its assigned threshold strategy online.
type Agent struct {
	// ID uniquely names the agent.
	ID string
	// Class is the application type.
	Class string

	trace     *workload.TraceGenerator
	predictor Predictor
	threshold float64
	assigned  bool

	// profiling buffer
	samples []float64
}

// NewAgent creates an agent for a benchmark with its own trace stream.
func NewAgent(id string, b *workload.Benchmark, seed uint64, pred Predictor) (*Agent, error) {
	if id == "" {
		return nil, errors.New("coord: agent needs an id")
	}
	if pred == nil {
		return nil, errors.New("coord: agent needs a predictor")
	}
	tr, err := workload.NewTraceGenerator(b, seed)
	if err != nil {
		return nil, err
	}
	return &Agent{ID: id, Class: b.Name, trace: tr, predictor: pred}, nil
}

// ProfileEpochs samples n epochs of utility and returns the profile to
// submit to the coordinator (offline analysis, §4.4).
func (a *Agent) ProfileEpochs(n, bins int) (Profile, error) {
	if n <= 0 || bins <= 0 {
		return Profile{}, errors.New("coord: need positive epochs and bins")
	}
	for i := 0; i < n; i++ {
		a.samples = append(a.samples, a.trace.Next())
	}
	d, err := dist.FromSamples(a.samples, bins)
	if err != nil {
		return Profile{}, err
	}
	return Profile{
		Agent:   a.ID,
		Class:   a.Class,
		Values:  d.Values(),
		Weights: d.Probs(),
	}, nil
}

// Assign installs a strategy from the coordinator.
func (a *Agent) Assign(s Strategy) error {
	if s.Class != a.Class {
		return fmt.Errorf("coord: strategy for class %q assigned to agent of class %q", s.Class, a.Class)
	}
	a.threshold = s.Threshold
	a.assigned = true
	return nil
}

// Step advances one epoch: the trace produces the epoch's true utility,
// the predictor estimates it, and the agent sprints if the estimate
// exceeds the assigned threshold. It returns the decision and the true
// utility. Before a strategy is assigned the agent never sprints.
func (a *Agent) Step() (sprint bool, utility float64) {
	utility = a.trace.Next()
	if o, ok := a.predictor.(*OraclePredictor); ok {
		o.SetTruth(utility)
	}
	est := a.predictor.Predict()
	if a.assigned && est > a.threshold {
		sprint = true
	}
	a.predictor.Observe(utility)
	return sprint, utility
}
