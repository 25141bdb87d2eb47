package workload

import (
	"errors"

	"sprintgame/internal/dist"
	"sprintgame/internal/stats"
)

// Trace is a per-epoch utility trace for one agent: Utilities[t] is the
// normalized TPS gain the agent's application would see from sprinting in
// epoch t, and BaseTPS[t] is its normal-mode task throughput in that
// epoch. Total work per epoch in sprint mode is BaseTPS[t]*Utilities[t].
type Trace struct {
	Benchmark string
	Utilities []float64
	BaseTPS   []float64
}

// Len returns the trace length in epochs.
func (t *Trace) Len() int { return len(t.Utilities) }

// At returns the trace's utility and base TPS at the given epoch,
// wrapping modulo the trace length — the access pattern trace-replay
// consumers (sim replayers, route.TraceArrivals) share. It panics on an
// empty trace; BaseTPS shorter than Utilities reports 0 TPS past its
// end rather than wrapping out of phase.
func (t *Trace) At(epoch int) (utility, baseTPS float64) {
	n := t.Len()
	if n == 0 {
		panic("workload: At on empty trace")
	}
	i := epoch % n
	if i < 0 {
		i += n
	}
	utility = t.Utilities[i]
	if i < len(t.BaseTPS) {
		baseTPS = t.BaseTPS[i]
	}
	return utility, baseTPS
}

// TraceGenerator emits phase-structured utility traces for a benchmark.
// The process is a semi-Markov regime switch: the generator dwells in
// phase i for a geometric number of epochs with mean Phase.MeanDwell,
// then jumps to a phase chosen by weight. Within a phase, utilities are
// drawn i.i.d. from the phase distribution, so the trace's marginal
// distribution matches Benchmark.Density exactly while phase persistence
// provides the temporal correlation real application phases exhibit.
type TraceGenerator struct {
	bench *Benchmark
	rng   *stats.RNG
	// visits holds each phase's jump weight, fixed for the benchmark.
	visits []float64

	phase int
	dwell int
}

// NewTraceGenerator returns a generator for b seeded by seed.
func NewTraceGenerator(b *Benchmark, seed uint64) (*TraceGenerator, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	g := &TraceGenerator{bench: b, rng: stats.NewRNG(seed), visits: make([]float64, len(b.Phases))}
	for i, ph := range b.Phases {
		// Weight is the long-run epoch fraction; visits are weighted by
		// fraction / dwell so that dwell * visitRate is proportional to
		// the configured weight.
		g.visits[i] = ph.Weight / ph.MeanDwell
	}
	g.jump()
	// Random initial dwell offset: agents arrive at random points of
	// their applications (§5, randomized arrivals).
	g.dwell = g.rng.Intn(g.dwell + 1)
	return g, nil
}

// jump selects a new phase by weight and draws its dwell length.
func (g *TraceGenerator) jump() {
	g.phase = g.rng.Choice(g.visits)
	ph := g.bench.Phases[g.phase]
	stay := 1 - 1/ph.MeanDwell
	g.dwell = g.rng.Geometric(stay)
}

// Next returns the utility for the next epoch.
func (g *TraceGenerator) Next() float64 {
	if g.dwell <= 0 {
		g.jump()
	}
	g.dwell--
	return g.bench.Phases[g.phase].Utility.Sample(g.rng)
}

// Generate produces a trace of n epochs. BaseTPS is modeled as a mildly
// noisy constant per benchmark (tasks per second under 3 cores at
// 1.2 GHz); the interesting signal is in the utilities.
func (g *TraceGenerator) Generate(n int) (*Trace, error) {
	if n <= 0 {
		return nil, errors.New("workload: trace length must be positive")
	}
	tr := &Trace{
		Benchmark: g.bench.Name,
		Utilities: make([]float64, n),
		BaseTPS:   make([]float64, n),
	}
	base := 40 + 20*g.rng.Float64() // tasks/second in normal mode
	for i := 0; i < n; i++ {
		tr.Utilities[i] = g.Next()
		tr.BaseTPS[i] = base * (0.9 + 0.2*g.rng.Float64())
	}
	return tr, nil
}

// SampleDensity draws n per-epoch utilities and returns them; feeding
// these into a KDE reproduces Figure 10, and histogramming them gives the
// empirical f(u) an agent would report to the coordinator.
func (g *TraceGenerator) SampleDensity(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// EmpiricalDensity profiles the benchmark for epochs epochs and returns
// the observed utility PMF with the given number of bins. This mirrors
// the paper's offline profiling: agents sample epochs, measure utility,
// and report a density to the coordinator.
func EmpiricalDensity(b *Benchmark, seed uint64, epochs, bins int) (*dist.Discrete, error) {
	g, err := NewTraceGenerator(b, seed)
	if err != nil {
		return nil, err
	}
	return dist.FromSamples(g.SampleDensity(epochs), bins)
}
