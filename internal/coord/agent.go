package coord

import (
	"errors"

	"sprintgame/internal/dist"
	"sprintgame/internal/workload"
)

// Agent is a user's run-time agent in its offline role (§4.4): it
// profiles its workload and reports the profile to the coordinator. The
// rack simulator and package policy apply the assigned strategies online.
type Agent struct {
	// ID uniquely names the agent.
	ID string
	// Class is the application type.
	Class string

	trace *workload.TraceGenerator
	// profiling buffer
	samples []float64
}

// NewAgent creates an agent for a benchmark with its own trace stream.
func NewAgent(id string, b *workload.Benchmark, seed uint64) (*Agent, error) {
	if id == "" {
		return nil, errors.New("coord: agent needs an id")
	}
	tr, err := workload.NewTraceGenerator(b, seed)
	if err != nil {
		return nil, err
	}
	return &Agent{ID: id, Class: b.Name, trace: tr}, nil
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
