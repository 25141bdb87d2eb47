package workload

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"sprintgame/internal/dist"
)

// TraceSet is a bundle of recorded traces with provenance, the on-disk
// interchange format between cmd/tracegen and the trace-driven simulator
// (the role the authors' recorded Spark traces play for their R
// simulator).
type TraceSet struct {
	// Benchmark names the workload all traces belong to.
	Benchmark string `json:"benchmark"`
	// Seed records the generator seed for reproducibility.
	Seed uint64 `json:"seed"`
	// Traces holds one utility trace per agent.
	Traces []*Trace `json:"traces"`
}

// Validate checks the trace set.
func (ts *TraceSet) Validate() error {
	if ts.Benchmark == "" {
		return errors.New("workload: trace set missing benchmark name")
	}
	if len(ts.Traces) == 0 {
		return errors.New("workload: trace set has no traces")
	}
	for i, tr := range ts.Traces {
		if tr == nil || tr.Len() == 0 {
			return fmt.Errorf("workload: trace %d is empty", i)
		}
		if len(tr.BaseTPS) != tr.Len() {
			return fmt.Errorf("workload: trace %d has mismatched TPS series", i)
		}
		for e, u := range tr.Utilities {
			if u < 0 {
				return fmt.Errorf("workload: trace %d epoch %d has negative utility", i, e)
			}
		}
	}
	return nil
}

// GenerateTraceSet records count traces of the given length for a
// benchmark, each from an independent stream derived from seed.
func GenerateTraceSet(b *Benchmark, seed uint64, count, epochs int) (*TraceSet, error) {
	if count <= 0 {
		return nil, errors.New("workload: need at least one trace")
	}
	ts := &TraceSet{Benchmark: b.Name, Seed: seed}
	for i := 0; i < count; i++ {
		g, err := NewTraceGenerator(b, seed+uint64(i)*0x9e3779b9+1)
		if err != nil {
			return nil, err
		}
		tr, err := g.Generate(epochs)
		if err != nil {
			return nil, err
		}
		ts.Traces = append(ts.Traces, tr)
	}
	return ts, nil
}

// Save writes the trace set as JSON.
func (ts *TraceSet) Save(w io.Writer) error {
	if err := ts.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	return enc.Encode(ts)
}

// LoadTraceSet reads a trace set written by Save and validates it.
func LoadTraceSet(r io.Reader) (*TraceSet, error) {
	var ts TraceSet
	dec := json.NewDecoder(r)
	if err := dec.Decode(&ts); err != nil {
		return nil, fmt.Errorf("workload: decoding trace set: %w", err)
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	return &ts, nil
}

// Replayer replays a recorded trace as an epoch utility stream, looping
// when the trace is shorter than the simulation. It satisfies the same
// Next()/Skip() contract as TraceGenerator; replay is index-based, so
// skipping an epoch reads the same later values as reading it would.
type Replayer struct {
	trace *Trace
	pos   int
}

// NewReplayer starts a replay of tr at the given epoch offset.
func NewReplayer(tr *Trace, offset int) (*Replayer, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, errors.New("workload: cannot replay an empty trace")
	}
	if offset < 0 {
		return nil, errors.New("workload: negative replay offset")
	}
	return &Replayer{trace: tr, pos: offset % tr.Len()}, nil
}

// Next returns the next epoch's utility.
func (r *Replayer) Next() float64 {
	u := r.trace.Utilities[r.pos]
	r.Skip()
	return u
}

// Skip advances one epoch without reading its utility.
func (r *Replayer) Skip() {
	r.pos = (r.pos + 1) % r.trace.Len()
}

// Density histograms the full trace set into a Discrete utility density —
// the profile the coordinator would compute from these recordings.
func (ts *TraceSet) Density(bins int) (*dist.Discrete, error) {
	var samples []float64
	for _, tr := range ts.Traces {
		samples = append(samples, tr.Utilities...)
	}
	return dist.FromSamples(samples, bins)
}
