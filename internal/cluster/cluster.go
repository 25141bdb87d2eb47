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
// chosen epochs; a killed rack returns its partial series inside a
// typed RackError. Restartable failures are retried up to
// Config.MaxRetries times, each attempt on a fresh derived RNG stream.
// With Config.AllowPartial the run degrades gracefully: aggregates
// cover surviving racks only and Result.Failed reports every failure;
// without it, Run joins every rack error via errors.Join so no failure
// is swallowed. The determinism contract survives both modes.
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
	// AllowPartial degrades gracefully when racks fail: the run
	// aggregates surviving racks only and reports every failure in
	// Result.Failed instead of returning an error. A run in which every
	// rack fails still errors — there is nothing to aggregate.
	AllowPartial bool
	// MaxRetries bounds retry attempts per rack for restartable
	// failures (injected FaultPlan kills). Each attempt runs on a fresh
	// RNG stream derived from the rack's seed and the attempt number, so
	// reruns are byte-identical.
	// Non-restartable failures (policy construction, configuration) are
	// never retried. A retry re-simulates at once: its outcome depends
	// only on the derived seed, so there is nothing to wait for.
	MaxRetries int
}

// Validate checks the cluster configuration (policy presence and rack
// shapes; per-rack game validation happens in sim.NewStepper).
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
	if c.MaxRetries < 0 {
		return errors.New("cluster: negative MaxRetries")
	}
	for i, spec := range c.Racks {
		if len(spec.Groups) == 0 {
			return fmt.Errorf("cluster: rack %d has no agent groups", i)
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
	// Rack is the rack's index in Config.Racks. With AllowPartial the
	// survivor list can be sparse, so the index is not the position in
	// Result.Racks.
	Rack int
	// Name is the rack's label.
	Name string
	// Seed is the seed the successful attempt actually ran with (a
	// derived retry seed when Attempts > 1).
	Seed uint64
	// Attempts is the number of attempts the rack took (1 = no retry).
	Attempts int
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
	// failures it covers every rack; with Config.AllowPartial it can be
	// a strict subset (see Failed).
	Racks []RackResult
	// Failed lists failed racks in rack-index order. It is non-empty
	// only with Config.AllowPartial (otherwise Run returns the joined
	// errors instead of a Result). All aggregate fields below cover
	// surviving racks only.
	Failed []RackError
	// Retries is the total number of retry attempts across all racks,
	// including retries that ultimately recovered the rack.
	Retries int
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

// FailureErr joins every failed rack's error (nil when no rack
// failed), mirroring what Run returns when AllowPartial is off.
func (r *Result) FailureErr() error {
	if len(r.Failed) == 0 {
		return nil
	}
	errs := make([]error, len(r.Failed))
	for i := range r.Failed {
		errs[i] = &r.Failed[i]
	}
	return errors.Join(errs...)
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

// rackConfig resolves rack i's simulation configuration. Per-rack
// telemetry sinks stay nil: sharing the cluster's sinks across
// concurrent racks would interleave nondeterministically and break the
// determinism-under-parallelism contract, so all cluster telemetry is
// derived from rack results after the run.
func (c Config) rackConfig(i int) sim.Config {
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

// RackSimConfig resolves rack i's fully-specified simulation
// configuration — derived seed, per-rack game override, telemetry
// sinks nil'd per the determinism contract. The serving layer
// (internal/route) uses it to build per-rack Steppers that reproduce
// exactly what a batch Run would simulate.
func (c Config) RackSimConfig(i int) sim.Config { return c.rackConfig(i) }

// RackName resolves rack i's label ("rack<i>" when unnamed).
func (c Config) RackName(i int) string { return c.rackName(i) }

// rackOutcome is one rack's terminal state: exactly one of res and err
// is non-nil. start/dur record the rack's wall-clock window on its
// worker goroutine; they feed span timings only (never results), and
// only when the tracer has a clock.
type rackOutcome struct {
	seed     uint64
	attempts int
	res      *sim.Result
	err      *RackError
	start    time.Time
	dur      time.Duration
}

// rackName resolves rack i's label.
func (c Config) rackName(i int) string {
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

// runRack runs rack i to its terminal outcome: up to 1+MaxRetries
// attempts, each on its own derived RNG stream, with killEpoch >= 0
// injecting a FaultPlan kill. A killed attempt steps its sim.Stepper up
// to the kill epoch and no further, exactly as route.Serve stops a dead
// rack, so both engines report the same RackError. Everything here is a
// pure function of the configuration and the rack index, so outcomes
// are identical for every worker count.
func (c Config) runRack(i, killEpoch int) rackOutcome {
	baseCfg := c.rackConfig(i)
	name := c.rackName(i)
	var last *RackError
	for attempt := 1; attempt <= 1+c.MaxRetries; attempt++ {
		simCfg := baseCfg
		if attempt > 1 {
			// Fresh stream per attempt: a retried rack must not replay
			// the doomed attempt's draws.
			simCfg.Seed = retrySeed(baseCfg.Seed, attempt-1)
		}
		killed := killEpoch >= 0 && (attempt == 1 || !c.Faults.Transient)
		end := c.Epochs
		if killed {
			end = killEpoch
		}
		// Policy construction and configuration failures are not
		// restartable, and neither is a stepper error.
		fail := func(epoch int, err error) rackOutcome {
			return rackOutcome{seed: simCfg.Seed, attempts: attempt, err: &RackError{
				Rack: i, Name: name, Epoch: epoch, Attempts: attempt, Err: err,
			}}
		}
		pol, err := c.Policy(i, c.Racks[i], simCfg)
		if err != nil {
			return fail(-1, fmt.Errorf("policy: %w", err))
		}
		st, err := sim.NewStepper(simCfg, pol)
		if err != nil {
			return fail(-1, err)
		}
		for st.Completed() < end {
			if _, err := st.Step(); err != nil {
				return fail(st.Completed(), err)
			}
		}
		res := st.Finalize()
		if !killed {
			return rackOutcome{seed: simCfg.Seed, attempts: attempt, res: res}
		}
		last = &RackError{
			Rack: i, Name: name, Epoch: end, Attempts: attempt,
			Err: &RackFault{Rack: i, Epoch: end}, Partial: res,
		}
	}
	return rackOutcome{seed: baseCfg.Seed, attempts: last.Attempts, err: last}
}

// Run simulates every rack and aggregates the cluster outcome. Racks
// are distributed over a pool of Workers goroutines; the result (and
// any trace) is identical for every pool size, with or without an
// active FaultPlan.
//
// When racks fail: without AllowPartial, Run returns every rack error
// joined via errors.Join; with AllowPartial it aggregates the
// survivors and reports failures in Result.Failed, erroring only when
// no rack survived.
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
	retries := 0
	for i := range outcomes {
		retries += outcomes[i].attempts - 1
		if outcomes[i].err != nil {
			failed = append(failed, *outcomes[i].err)
		}
	}
	emitFaults(cfg, failed, retries)
	if len(failed) > 0 && (!cfg.AllowPartial || len(failed) == len(cfg.Racks)) {
		errs := make([]error, len(failed))
		for i := range failed {
			errs[i] = &failed[i]
		}
		err := errors.Join(errs...)
		if cfg.AllowPartial {
			err = fmt.Errorf("cluster: all %d racks failed: %w", len(failed), err)
		}
		emitTrace(cfg, outcomes, nil, retries, runStart)
		return nil, err
	}

	out := aggregate(cfg, workers, outcomes, failed, retries)
	emitTrace(cfg, outcomes, out, retries, runStart)
	return out, nil
}

// aggregate folds surviving rack results into the cluster result and
// emits cluster metrics, all in deterministic rack-index order. Failed
// racks (AllowPartial) are excluded from every aggregate.
func aggregate(cfg Config, workers int, outcomes []rackOutcome, failed []RackError, retries int) *Result {
	out := &Result{
		Racks:   make([]RackResult, 0, len(outcomes)-len(failed)),
		Failed:  failed,
		Retries: retries,
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
			Rack: i, Name: cfg.rackName(i), Seed: oc.seed,
			Attempts: oc.attempts, Agents: agents, Sim: res,
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

// emitFaults counts failures and retries in the cluster's metrics. Like
// emitTrace it runs on every Run exit path — degraded aggregation and
// error returns alike — so no rack failure is ever swallowed silently.
func emitFaults(cfg Config, failed []RackError, retries int) {
	if m := cfg.Metrics; m != nil && (len(failed) > 0 || retries > 0) {
		m.Counter("cluster.rack_failures").Add(int64(len(failed)))
		m.Counter("cluster.retries").Add(int64(retries))
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
func emitTrace(cfg Config, outcomes []rackOutcome, out *Result, retries int, runStart time.Time) {
	t := cfg.Tracer
	if !t.Enabled() {
		return
	}
	root := t.StartSpan("cluster.run", telemetry.TraceIDFromSeed(mixSeed(cfg.BaseSeed, -2)))
	failed := 0
	for i := range outcomes {
		oc := &outcomes[i]
		r := RackResult{
			Rack: i, Name: cfg.rackName(i), Seed: oc.seed,
			Attempts: oc.attempts, Agents: cfg.rackAgents(i), Sim: oc.res,
		}
		fields := telemetry.Fields{
			"rack":      i,
			"rack_name": r.Name,
			"seed":      r.Seed,
			"attempts":  r.Attempts,
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
		"retries":      retries,
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
