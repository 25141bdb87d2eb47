package main

import (
	"fmt"
	"runtime"
	"time"

	"sprintgame/internal/cluster"
	"sprintgame/internal/core"
	"sprintgame/internal/policy"
	"sprintgame/internal/power"
	"sprintgame/internal/route"
	"sprintgame/internal/sim"
	"sprintgame/internal/stats"
	"sprintgame/internal/workload"
)

// route-sim serves routebench's contended shape: 8 racks whose pairs
// split 64 chips 1:3, a Poisson stream at nominal capacity, and the
// equilibrium sprint policy on every rack.
const (
	routeRacks    = 8
	routeChips    = 64
	routeEpochs   = 600
	routeWorkers  = 2
	routeApp      = "decision"
	routeArrivals = "poisson:rate=128,units=4"
	// refPolicy is the leg whose quality numbers are pinned across runs.
	refPolicy = "sprint-aware"
)

// scaledGame scales the paper's rack (N=1000, Nmin=250, Nmax=750) to n
// chips.
func scaledGame(n int) core.Config {
	game := core.DefaultConfig()
	nmin, nmax := game.Trip.Bounds()
	f := float64(n) / float64(game.N)
	game.Trip = power.LinearTripModel{NMin: nmin * f, NMax: nmax * f}
	game.N = n
	return game
}

type routeEnv struct {
	specs    []cluster.RackSpec
	arrivals *route.ArrivalConfig
}

func newRouteEnv() (*routeEnv, error) {
	bench, err := workload.ByName(routeApp)
	if err != nil {
		return nil, err
	}
	arr, err := route.ParseArrivalConfig(routeArrivals)
	if err != nil {
		return nil, err
	}
	specs := make([]cluster.RackSpec, routeRacks)
	for i := range specs {
		n := routeChips / 2
		if i%2 == 1 {
			n = routeChips + routeChips/2
		}
		game := scaledGame(n)
		specs[i] = cluster.RackSpec{
			Groups: []sim.Group{{Class: bench.Name, Count: n, Bench: bench}},
			Game:   &game,
		}
	}
	return &routeEnv{specs: specs, arrivals: arr}, nil
}

// legLayers accumulates the traced legs' per-layer costs, measured
// through wrappers around the route and cluster interfaces.
type legLayers struct {
	pick, arrivals        *latencyHist
	pickSum, arrivalsSum  time.Duration
	buildSum, legSum      time.Duration
	builds, legs          []float64 // per leg, ms
	decisions, rackEpochs int64
}

func newLegLayers() *legLayers {
	return &legLayers{pick: newLatencyHist(), arrivals: newLatencyHist()}
}

// timedArrivals records one cluster epoch per Epoch call: an epoch runs
// from its Epoch call to the next one (or to Serve's return).
type timedArrivals struct {
	route.Arrivals
	rec     *recorder
	ll      *legLayers
	started bool
	epoch   time.Time
}

func (a *timedArrivals) Epoch(epoch int, rng *stats.RNG) []route.Job {
	now := time.Now()
	a.finish(now)
	a.started, a.epoch = true, now
	jobs := a.Arrivals.Epoch(epoch, rng)
	if a.ll != nil {
		d := time.Since(now)
		a.ll.arrivals.add(d)
		a.ll.arrivalsSum += d
	}
	return jobs
}

// finish closes the running epoch at end.
func (a *timedArrivals) finish(end time.Time) {
	if a.started && a.rec != nil {
		a.rec.done(a.epoch, end, routeRacks)
	}
	a.started = false
}

type timedRouter struct {
	route.Policy
	ll *legLayers
}

func (r *timedRouter) Pick(job route.Job, racks []cluster.RackSnapshot) int {
	start := time.Now()
	i := r.Policy.Pick(job, racks)
	d := time.Since(start)
	r.ll.pick.add(d)
	r.ll.pickSum += d
	return i
}

// countingPolicy counts one rack's sprint decisions. Each rack's policy
// is driven by one stepper at a time, so the count needs no lock.
type countingPolicy struct {
	policy.Policy
	decisions int64
}

func (c *countingPolicy) Decide(ctx policy.Context) bool {
	c.decisions++
	return c.Policy.Decide(ctx)
}

// leg serves one policy on one seed with a fresh solve cache, so each
// leg solves its two rack games. rec, when non-nil, receives the leg's
// epochs; ll, when non-nil, its layer costs.
func (env *routeEnv) leg(seed uint64, name string, rec *recorder, ll *legLayers) (*route.Result, error) {
	router, err := route.ByName(name, cluster.MixSeed(seed, -3)^0x5eed)
	if err != nil {
		return nil, err
	}
	arr, err := env.arrivals.Build(nil)
	if err != nil {
		return nil, err
	}
	factory := cluster.EquilibriumFactory(core.NewSolveCache(0, nil))
	var (
		counters []*countingPolicy
		build    time.Duration
	)
	if ll != nil {
		router = &timedRouter{Policy: router, ll: ll}
		inner := factory
		// route.Serve builds the racks' policies one at a time, before
		// any rack steps, so the wrapper needs no lock.
		factory = func(rack int, spec cluster.RackSpec, simCfg sim.Config) (policy.Policy, error) {
			start := time.Now()
			pol, err := inner(rack, spec, simCfg)
			build += time.Since(start)
			if err != nil {
				return nil, err
			}
			c := &countingPolicy{Policy: pol}
			counters = append(counters, c)
			return c, nil
		}
	}
	timed := &timedArrivals{Arrivals: arr, rec: rec, ll: ll}
	start := time.Now()
	res, err := route.Serve(route.Config{
		Cluster: cluster.Config{
			Racks:    env.specs,
			Epochs:   routeEpochs,
			BaseSeed: seed,
			Game:     scaledGame(routeChips),
			Workers:  routeWorkers,
			Policy:   factory,
		},
		Arrivals: timed,
		Router:   router,
	})
	end := time.Now()
	timed.finish(end)
	if err != nil {
		return nil, err
	}
	if res.Arrived != res.Completed+res.Unfinished {
		return nil, fmt.Errorf("%s leg: %d arrived != %d completed + %d unfinished",
			name, res.Arrived, res.Completed, res.Unfinished)
	}
	if ll != nil {
		ll.buildSum += build
		ll.builds = append(ll.builds, float64(build)/1e6)
		ll.legSum += end.Sub(start)
		ll.legs = append(ll.legs, float64(end.Sub(start))/1e6)
		for _, c := range counters {
			ll.decisions += c.decisions
		}
		ll.rackEpochs += routeRacks * routeEpochs
	}
	return res, nil
}

// quality is a leg's serving quality: units per epoch and job p99.
type quality struct{ units, p99 float64 }

func qualityOf(res *route.Result) quality { return quality{res.Throughput, res.Latency.P99} }

// runRoute runs route-sim: passes of one leg per routing policy, the
// first on the run's seed, each later pass on the next seed.
func runRoute(p phase) (*outcome, error) {
	o := &outcome{quality: map[string]float64{}}
	var env *routeEnv
	var ref *quality
	for i := 0; i < p.setupReps(); i++ {
		start := time.Now()
		var err error
		if env, err = newRouteEnv(); err != nil {
			return nil, err
		}
		res, err := env.leg(p.seed, refPolicy, nil, nil)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start))
		if q := qualityOf(res); ref == nil {
			ref = &q
		} else if q != *ref {
			o.fail("%s leg on seed %d: quality %+v, then %+v", refPolicy, p.seed, *ref, q)
		}
	}

	var ll *legLayers
	if p.traced {
		ll = newLegLayers()
	}
	runtime.GC()
	o.before = readResources()
	t0 := time.Now()
	deadline := t0.Add(p.dur)
	rec := newRecorder(t0, p.dur)
	for pass := uint64(0); time.Now().Before(deadline); pass++ {
		for _, name := range route.PolicyNames() {
			if !time.Now().Before(deadline) {
				break
			}
			rec.attempted++
			res, err := env.leg(p.seed+pass, name, rec, ll)
			if err != nil {
				rec.failed++
				o.fail("pass %d: %v", pass, err)
				continue
			}
			if pass > 0 {
				continue
			}
			q := qualityOf(res)
			o.quality["route.units_per_epoch."+name] = q.units
			o.quality["route.job_p99_epochs."+name] = q.p99
			if name == refPolicy && q != *ref {
				o.fail("%s leg on seed %d: quality %+v in the timed pass, %+v in set-up", name, p.seed, q, *ref)
			}
		}
	}
	o.after = readResources()
	o.rec = rec
	if ll != nil {
		o.layers = layerMetrics{}
		for k, v := range o.quality {
			o.layers[k] = v
		}
		if v, ok := ll.pick.quantileNS(0.5); ok {
			o.layers["route.pick_ns.p50"] = v
		}
		if v, ok := ll.arrivals.quantileNS(0.5); ok {
			o.layers["route.arrivals_us.p50"] = v / 1e3
		}
		if v, ok := p50Of(ll.builds); ok {
			o.layers["cluster.policy_build_ms.sum"] = v
		}
		if v, ok := p50Of(ll.legs); ok {
			o.layers["route.leg_ms.p50"] = v
		}
		if ll.rackEpochs > 0 {
			o.layers["policy.decisions_per_rack_epoch"] = float64(ll.decisions) / float64(ll.rackEpochs)
		}
		o.attributed = float64(ll.pickSum + ll.arrivalsSum + ll.buildSum)
		o.opTotal = float64(ll.legSum)
		if o.opTotal > 0 {
			o.layers["route.step_share"] = 1 - o.attributed/o.opTotal
		}
	}
	return o, nil
}
