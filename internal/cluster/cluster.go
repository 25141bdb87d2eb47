// Package cluster scales the single-rack simulator of package sim to a
// datacenter: R racks, each an independent sprinting game with its own
// breaker, UPS state, workload mix, and RNG stream, driven concurrently
// by a worker pool and aggregated into cluster-level statistics.
//
// The paper evaluates one rack of N sprinting chips, but its mean-field
// framing explicitly targets datacenter scale (§4): racks do not share
// breakers, so a datacenter is a collection of independent rack games
// whose aggregate behaviour — total task throughput, trips per
// rack-epoch, the cross-rack distribution of sprinters — is what a
// capacity planner cares about.
//
// # Determinism under parallelism
//
// A cluster run is byte-identical regardless of Config.Workers:
//
//   - each rack owns a deterministic RNG stream seeded from its
//     RackSpec.Seed (or derived from Config.BaseSeed and the rack index),
//     so no rack's randomness depends on scheduling;
//   - policies are constructed per rack by the PolicyFactory, so
//     stateful policies (e.g. exponential backoff) never share state
//     across racks;
//   - racks run with nil per-rack telemetry sinks; cluster metrics and
//     the cluster.run span tree are emitted after all racks complete, in
//     rack-index and then epoch order.
//
// Consequently rack i of a cluster run reproduces exactly the results
// of a standalone sim.Run with the same sim.Config — verified by
// TestClusterMatchesStandaloneRacks.
//
// # Fault injection and graceful degradation
//
// Real datacenters lose racks mid-run. A FaultPlan (seeded from
// Config.BaseSeed, independent of Workers) kills selected racks at
// chosen epochs. A kill is permanent, as in the serving layer
// (internal/route): the rack returns its partial series inside a typed
// RackError and is not rerun. The run degrades gracefully: aggregates
// cover surviving racks only and Result.Failed reports every failure.
// Run errors only when no rack survived, joining every rack error via
// errors.Join so no failure is swallowed. The determinism contract
// holds with and without faults.
package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sprintgame/internal/core"
	"sprintgame/internal/policy"
	"sprintgame/internal/sim"
	"sprintgame/internal/stats"
	"sprintgame/internal/telemetry"
)

// RackSpec describes one rack of the cluster.
type RackSpec struct {
	// Name labels the rack in results and trace spans; defaults to
	// "rack<i>".
	Name string
	// Seed seeds the rack's RNG stream. Zero derives a seed from the
	// cluster's BaseSeed and the rack index.
	Seed uint64
	// Groups is the rack's workload mix; counts must sum to the rack's
	// game N.
	Groups []sim.Group
	// Game overrides the cluster-wide game parameters (breaker, UPS,
	// cooling) for this rack. Nil uses Config.Game.
	Game *core.Config
}

// PolicyFactory builds the sprinting policy for one rack. It is called
// from worker goroutines, potentially concurrently across racks, so it
// must be safe for concurrent use. The returned policy is used by a
// single rack only and called from one goroutine at a time, so it
// needs no lock, and never after Run (or route.Serve) returns. simCfg
// is the rack's fully resolved simulation configuration (seed, game,
// groups).
type PolicyFactory func(rack int, spec RackSpec, simCfg sim.Config) (policy.Policy, error)

// Config configures a cluster run.
type Config struct {
	// Racks lists the cluster's racks.
	Racks []RackSpec
	// Epochs is the number of epochs each rack simulates.
	Epochs int
	// BaseSeed seeds racks whose RackSpec.Seed is zero, mixed with the
	// rack index so streams are independent.
	BaseSeed uint64
	// Game is the default per-rack game configuration (Table 2).
	Game core.Config
	// Workers bounds the worker pool; <= 0 selects runtime.NumCPU().
	// Results are identical for every value.
	Workers int
	// Policy builds each rack's sprinting policy. A rack's policy is
	// called from one goroutine at a time and never after the run
	// returns; see PolicyFactory.
	Policy PolicyFactory
	// RecordSeries keeps per-epoch series on each rack result. It is
	// forced on when Tracer is set (cluster.epoch spans are built from
	// the series).
	RecordSeries bool
	// Metrics, when non-nil, receives cluster metrics (cluster.racks,
	// cluster.rack_epochs, cluster.trips, cluster.task_rate, ...).
	Metrics *telemetry.Registry
	// Tracer, when non-nil, receives the run's span tree, emitted
	// deterministically after the run: a cluster.run root summarizing
	// the cluster, one cluster.rack child per rack (failed racks
	// included), and one cluster.epoch child per epoch. Span timings
	// appear only when the tracer has a clock, so clock-less traces stay
	// byte-identical for every Workers value.
	Tracer *telemetry.Tracer
	// Faults, when active, deterministically kills selected racks
	// mid-run (see FaultPlan). The schedule depends only on BaseSeed,
	// never on Workers.
	Faults *FaultPlan
}

// Validate checks the cluster configuration: the policy factory, the
// fault plan, and each rack's resolved simulation configuration. A rack
// that could never start (its groups do not sum to its game's N, say) is
// an input error that fails the run; only a policy-factory failure or a
// kill degrades it.
func (c Config) Validate() error {
	if len(c.Racks) == 0 {
		return errors.New("cluster: need at least one rack")
	}
	if c.Epochs <= 0 {
		return errors.New("cluster: need at least one epoch")
	}
	if c.Policy == nil {
		return errors.New("cluster: nil policy factory")
	}
	for i := range c.Racks {
		if err := c.RackSimConfig(i).Validate(); err != nil {
			return fmt.Errorf("cluster: rack %d: %w", i, err)
		}
	}
	if c.Faults != nil {
		if err := c.Faults.validate(len(c.Racks), c.Epochs); err != nil {
			return err
		}
	}
	return nil
}

// RackResult is one rack's outcome within a cluster run.
type RackResult struct {
	// Rack is the rack's index in Config.Racks. When racks fail the
	// survivor list is sparse, so the index is not the position in
	// Result.Racks.
	Rack int
	// Name is the rack's label.
	Name string
	// Seed is the seed the rack ran with.
	Seed uint64
	// Agents is the rack's chip count.
	Agents int
	// Sim is the rack's full simulation result.
	Sim *sim.Result
}

// SprinterDist summarizes the cross-rack distribution of mean
// sprinters per epoch: how evenly sprinting load spreads over the
// datacenter.
type SprinterDist struct {
	Min, Max, Mean, StdDev float64
}

// Result is a completed cluster run.
type Result struct {
	// Racks holds surviving racks' results in input order. Without
	// failures it covers every rack; otherwise it is a strict subset
	// (see Failed).
	Racks []RackResult
	// Failed lists failed racks in rack-index order. All aggregate
	// fields below cover surviving racks only.
	Failed []RackError
	// Epochs is the per-rack epoch count.
	Epochs int
	// Agents is the total chip count across surviving racks.
	Agents int
	// Workers is the worker-pool size the run used.
	Workers int
	// TaskRate is cluster-wide task units per agent-epoch.
	TaskRate float64
	// TotalUnits is the cluster's total task units.
	TotalUnits float64
	// Trips is the total number of power emergencies across racks.
	Trips int
	// TripsPerRackEpoch is Trips / (racks * epochs).
	TripsPerRackEpoch float64
	// Shares is the cluster-wide time-in-state breakdown, weighted by
	// rack agent counts.
	Shares sim.StateShares
	// Sprinters is the cross-rack distribution of per-rack mean
	// sprinters per epoch.
	Sprinters SprinterDist
}

// MixSeed derives the seed for stream idx from the cluster base seed
// with a SplitMix64 finalizer, so derived streams are decorrelated even
// for adjacent base seeds and indices. Racks use idx >= 0; negative
// indices are sentinels for auxiliary streams no rack can collide with
// (-1 fault schedule, -2 cluster trace ID, -3 serving-layer arrivals,
// -4 serving-layer trace ID — see internal/route).
func MixSeed(base uint64, idx int) uint64 { return mixSeed(base, idx) }

// mixSeed derives rack i's seed from the cluster base seed with a
// SplitMix64 finalizer, so per-rack streams are decorrelated even for
// adjacent base seeds and rack indices.
func mixSeed(base uint64, rack int) uint64 {
	z := base + 0x9e3779b97f4a7c15*(uint64(rack)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RackSimConfig resolves rack i's fully-specified simulation
// configuration: derived seed, per-rack game override, and nil
// telemetry sinks. Sharing the cluster's sinks across concurrent racks
// would interleave nondeterministically and break the
// determinism-under-parallelism contract, so all cluster telemetry is
// derived from rack results after the run. The serving layer
// (internal/route) builds its per-rack Steppers from it, so they
// reproduce exactly what a batch Run would simulate.
func (c Config) RackSimConfig(i int) sim.Config {
	spec := c.Racks[i]
	game := c.Game
	if spec.Game != nil {
		game = *spec.Game
	}
	game.Metrics = nil
	game.Span = nil
	seed := spec.Seed
	if seed == 0 {
		seed = mixSeed(c.BaseSeed, i)
	}
	return sim.Config{
		Epochs:       c.Epochs,
		Seed:         seed,
		Game:         game,
		Groups:       spec.Groups,
		RecordSeries: c.RecordSeries || c.Tracer.Enabled(),
	}
}

// rackOutcome is one rack's terminal state: exactly one of res and err
// is non-nil. start/dur record the rack's wall-clock window on its
// worker goroutine; they feed span timings only (never results), and
// only when the tracer has a clock.
type rackOutcome struct {
	seed  uint64
	res   *sim.Result
	err   *RackError
	start time.Time
	dur   time.Duration
}

// RackName resolves rack i's label ("rack<i>" when unnamed).
func (c Config) RackName(i int) string {
	if name := c.Racks[i].Name; name != "" {
		return name
	}
	return fmt.Sprintf("rack%d", i)
}

// rackAgents is rack i's chip count.
func (c Config) rackAgents(i int) int {
	n := 0
	for _, g := range c.Racks[i].Groups {
		n += g.Count
	}
	return n
}

// runRack runs rack i to its terminal outcome, with killEpoch >= 0
// injecting a FaultPlan kill. A killed rack steps its sim.Stepper up to
// the kill epoch and no further, exactly as route.Serve stops a dead
// rack, so both engines report the same RackError. Everything here is a
// pure function of the configuration and the rack index, so outcomes
// are identical for every worker count.
func (c Config) runRack(i, killEpoch int) rackOutcome {
	simCfg := c.RackSimConfig(i)
	name := c.RackName(i)
	fail := func(epoch int, err error, partial *sim.Result) rackOutcome {
		return rackOutcome{seed: simCfg.Seed, err: &RackError{
			Rack: i, Name: name, Epoch: epoch, Err: err, Partial: partial,
		}}
	}
	pol, err := c.Policy(i, c.Racks[i], simCfg)
	if err != nil {
		return fail(-1, fmt.Errorf("policy: %w", err), nil)
	}
	st, err := sim.NewStepper(simCfg, pol)
	if err != nil {
		return fail(-1, err, nil)
	}
	end := c.Epochs
	if killEpoch >= 0 {
		end = killEpoch
	}
	for st.Completed() < end {
		if _, err := st.Step(); err != nil {
			return fail(st.Completed(), err, nil)
		}
	}
	res := st.Finalize()
	if killEpoch >= 0 {
		return fail(end, &RackFault{Rack: i, Epoch: end}, res)
	}
	return rackOutcome{seed: simCfg.Seed, res: res}
}

// Run simulates every rack and aggregates the cluster outcome. Racks
// are distributed over a pool of Workers goroutines; the result (and
// any trace) is identical for every pool size, with or without an
// active FaultPlan.
//
// When racks fail, Run aggregates the survivors and reports failures in
// Result.Failed. It errors only when no rack survived, joining every
// rack error via errors.Join.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(cfg.Racks) {
		workers = len(cfg.Racks)
	}

	var kills []int
	if cfg.Faults.Active() {
		kills = cfg.Faults.Schedule(cfg.BaseSeed, len(cfg.Racks), cfg.Epochs)
	}
	runStart := time.Now()
	outcomes := make([]rackOutcome, len(cfg.Racks))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				kill := -1
				if kills != nil {
					kill = kills[i]
				}
				t0 := time.Now()
				outcomes[i] = cfg.runRack(i, kill)
				outcomes[i].start, outcomes[i].dur = t0, time.Since(t0)
			}
		}()
	}
	for i := range cfg.Racks {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	var failed []RackError
	for i := range outcomes {
		if outcomes[i].err != nil {
			failed = append(failed, *outcomes[i].err)
		}
	}
	emitFaults(cfg, failed)
	if len(failed) == len(cfg.Racks) {
		errs := make([]error, len(failed))
		for i := range failed {
			errs[i] = &failed[i]
		}
		emitTrace(cfg, outcomes, nil, runStart)
		return nil, fmt.Errorf("cluster: all %d racks failed: %w", len(failed), errors.Join(errs...))
	}

	out := aggregate(cfg, workers, outcomes, failed)
	emitTrace(cfg, outcomes, out, runStart)
	return out, nil
}

// aggregate folds surviving rack results into the cluster result and
// emits cluster metrics, all in deterministic rack-index order. Failed
// racks are excluded from every aggregate.
func aggregate(cfg Config, workers int, outcomes []rackOutcome, failed []RackError) *Result {
	out := &Result{
		Racks:   make([]RackResult, 0, len(outcomes)-len(failed)),
		Failed:  failed,
		Epochs:  cfg.Epochs,
		Workers: workers,
	}
	epochs := float64(cfg.Epochs)
	var unitWeighted sim.StateShares
	meanSprinters := make([]float64, 0, cap(out.Racks))
	for i := range outcomes {
		oc := &outcomes[i]
		if oc.err != nil {
			continue
		}
		res := oc.res
		agents := cfg.rackAgents(i)
		out.Racks = append(out.Racks, RackResult{
			Rack: i, Name: cfg.RackName(i), Seed: oc.seed,
			Agents: agents, Sim: res,
		})
		out.Agents += agents
		out.Trips += res.Trips
		agentEpochs := float64(agents) * epochs
		out.TotalUnits += res.TaskRate * agentEpochs
		unitWeighted.Sprinting += res.Shares.Sprinting * agentEpochs
		unitWeighted.ActiveIdle += res.Shares.ActiveIdle * agentEpochs
		unitWeighted.Cooling += res.Shares.Cooling * agentEpochs
		unitWeighted.Recovery += res.Shares.Recovery * agentEpochs
		// Sprinting share is the fraction of agent-epochs spent
		// sprinting, so share * N is the rack's mean sprinters per epoch.
		meanSprinters = append(meanSprinters, res.Shares.Sprinting*float64(agents))
	}
	allAgentEpochs := float64(out.Agents) * epochs
	out.TaskRate = out.TotalUnits / allAgentEpochs
	out.TripsPerRackEpoch = float64(out.Trips) / (float64(len(out.Racks)) * epochs)
	out.Shares = sim.StateShares{
		Sprinting:  unitWeighted.Sprinting / allAgentEpochs,
		ActiveIdle: unitWeighted.ActiveIdle / allAgentEpochs,
		Cooling:    unitWeighted.Cooling / allAgentEpochs,
		Recovery:   unitWeighted.Recovery / allAgentEpochs,
	}
	out.Sprinters = SprinterDist{
		Min:    stats.Min(meanSprinters),
		Max:    stats.Max(meanSprinters),
		Mean:   stats.Mean(meanSprinters),
		StdDev: stats.StdDev(meanSprinters),
	}

	emitMetrics(cfg, out)
	return out
}

// emitFaults counts failures in the cluster's metrics. Like emitTrace
// it runs on every Run exit path — degraded aggregation and error
// returns alike — so no rack failure is ever swallowed silently.
func emitFaults(cfg Config, failed []RackError) {
	if m := cfg.Metrics; m != nil && len(failed) > 0 {
		m.Counter("cluster.rack_failures").Add(int64(len(failed)))
	}
}

// rackRateBuckets spans degraded racks (rate < 1) to strong sprinting
// gains.
var rackRateBuckets = telemetry.LinearBuckets(0.5, 0.5, 12)

func emitMetrics(cfg Config, out *Result) {
	m := cfg.Metrics
	if m == nil {
		return
	}
	m.Counter("cluster.runs").Inc()
	m.Counter("cluster.racks").Add(int64(len(out.Racks)))
	m.Counter("cluster.rack_epochs").Add(int64(len(out.Racks) * out.Epochs))
	m.Counter("cluster.trips").Add(int64(out.Trips))
	m.Gauge("cluster.task_rate").Set(out.TaskRate)
	m.Gauge("cluster.trips_per_rack_epoch").Set(out.TripsPerRackEpoch)
	m.Gauge("cluster.sprinters_stddev").Set(out.Sprinters.StdDev)
	rateHist := m.Histogram("cluster.rack_task_rate", rackRateBuckets)
	tripHist := m.Histogram("cluster.rack_trips", nil)
	for _, r := range out.Racks {
		rateHist.Observe(r.Sim.TaskRate)
		tripHist.Observe(float64(r.Sim.Trips))
	}
}

// emitTrace writes the run's span tree: a cluster.run root with one
// cluster.rack child per rack (failed racks included) and then one
// cluster.epoch child per epoch, all emitted post-run in rack-index and
// epoch order so the span stream honours the determinism contract. The
// wall-clock windows captured on the worker goroutines surface only
// when the tracer has a clock; deterministic clock-less traces omit
// them. The trace ID derives from BaseSeed (mixed with a sentinel index
// no rack can occupy) so reruns reproduce it. out is nil when the run
// failed; the root then carries no cluster aggregates.
func emitTrace(cfg Config, outcomes []rackOutcome, out *Result, runStart time.Time) {
	t := cfg.Tracer
	if !t.Enabled() {
		return
	}
	root := t.StartSpan("cluster.run", telemetry.TraceIDFromSeed(mixSeed(cfg.BaseSeed, -2)))
	failed := 0
	for i := range outcomes {
		oc := &outcomes[i]
		r := RackResult{
			Rack: i, Name: cfg.RackName(i), Seed: oc.seed,
			Agents: cfg.rackAgents(i), Sim: oc.res,
		}
		fields := telemetry.Fields{
			"rack":      i,
			"rack_name": r.Name,
			"seed":      r.Seed,
			"agents":    r.Agents,
			"failed":    oc.err != nil,
		}
		if oc.err != nil {
			failed++
			fields["epoch"] = oc.err.Epoch
			fields["error"] = oc.err.Err.Error()
			r.Sim = oc.err.Partial
		}
		if r.Sim != nil {
			// The nested snapshot is the same observable routing policies
			// consume live in serving mode, so traceview and route.Policy
			// read one structure (queue depth is 0 here: batch runs have
			// no queues). A failed rack's snapshot is taken where its
			// partial run stopped.
			snap := cfg.Snapshot(&r)
			if oc.err != nil {
				snap.Alive, snap.RateUnits = false, 0
			}
			fields["policy"] = r.Sim.Policy
			fields["task_rate"] = r.Sim.TaskRate
			fields["trips"] = r.Sim.Trips
			fields["snapshot"] = snap.Fields()
		}
		root.Child("cluster.rack").WithTiming(oc.start, oc.dur).EndWith(fields)
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		sprinters, recovering := 0, 0
		for i := range outcomes {
			if res := outcomes[i].res; res != nil {
				sprinters += res.SprintersPerEpoch[epoch]
				recovering += res.RecoveringPerEpoch[epoch]
			}
		}
		root.Child("cluster.epoch").EndWith(telemetry.Fields{
			"epoch":      epoch,
			"sprinters":  sprinters,
			"recovering": recovering,
		})
	}
	// "failed_racks", not "failed": the rack children use "failed" as a
	// boolean, and one trace should not overload a key with two types.
	// The pool size is deliberately left out: the trace must be
	// byte-identical for every Config.Workers value.
	fields := telemetry.Fields{
		"racks":        len(outcomes) - failed,
		"failed_racks": failed,
		"epochs":       cfg.Epochs,
	}
	if out != nil {
		fields["agents"] = out.Agents
		fields["task_rate"] = out.TaskRate
		fields["trips"] = out.Trips
		fields["trips_per_rack_epoch"] = out.TripsPerRackEpoch
	}
	root.WithTiming(runStart, time.Since(runStart)).EndWith(fields)
}
