package route

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"sprintgame/internal/cluster"
	"sprintgame/internal/sim"
	"sprintgame/internal/stats"
	"sprintgame/internal/telemetry"
)

// Config configures a serving run.
type Config struct {
	// Cluster shapes the datacenter: racks, epochs, game parameters,
	// seeds, worker pool, sprint-policy factory, fault plan, and
	// telemetry sinks. Serving mode ignores the batch-only fields
	// AllowPartial and MaxRetries: a killed rack is permanent and its
	// queue is rerouted to survivors, which *is* the recovery
	// mechanism.
	Cluster cluster.Config
	// Arrivals generates the offered load.
	Arrivals Arrivals
	// Router assigns each arriving job to a rack.
	Router Policy
	// TraceSeed, when non-zero, overrides the seed the serving span
	// tree's trace ID derives from (default MixSeed(BaseSeed, -4)).
	// Shootouts that run several policies on the same BaseSeed — the
	// identical-arrival-stream discipline — give each run its own
	// TraceSeed so the span trees stay distinct in one trace file.
	TraceSeed uint64
}

// Validate checks the serving configuration.
func (c Config) Validate() error {
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	if c.Arrivals == nil {
		return errors.New("route: nil arrival process")
	}
	if c.Router == nil {
		return errors.New("route: nil routing policy")
	}
	return nil
}

// LatencySummary reports job latency in epochs (completion epoch −
// arrival epoch + 1: a job arriving and finishing in the same epoch has
// latency 1). Quantiles are estimated from a lock-free
// telemetry.Histogram with 1-epoch buckets, so they are exact up to the
// bucket width; Mean and Max are exact.
type LatencySummary struct {
	P50, P90, P99, P999 float64
	Mean, Max           float64
}

// RackServe is one rack's serving outcome.
type RackServe struct {
	// Rack is the rack's index in Config.Cluster.Racks.
	Rack int
	// Name is the rack's label.
	Name string
	// Alive is false when a fault killed the rack mid-run.
	Alive bool
	// Epochs is the number of epochs the rack completed.
	Epochs int
	// Jobs is the number of jobs the rack completed.
	Jobs int
	// Units is the total task units the rack's simulation produced
	// (serving capacity, whether or not a job consumed it).
	Units float64
	// QueueDepth is the rack's queue length when the run ended.
	QueueDepth int
	// Sim is the rack's simulation result (partial for killed racks).
	Sim *sim.Result
}

// Result is a completed serving run.
type Result struct {
	// Policy is the routing policy's name.
	Policy string
	// Arrivals is the arrival process's name.
	Arrivals string
	// Epochs is the run length.
	Epochs int
	// Workers is the worker-pool size used; results are identical for
	// every value.
	Workers int
	// Racks holds every rack's serving outcome in index order, dead
	// racks included (Alive == false).
	Racks []RackServe
	// Failed lists killed racks in rack-index order.
	Failed []cluster.RackError
	// Arrived, Completed, Unfinished count jobs; Arrived == Completed +
	// Unfinished always holds (the conservation invariant: rerouting
	// may delay a job, never drop it).
	Arrived, Completed, Unfinished int
	// Rerouted counts dispatches that re-queued a job off a killed
	// rack.
	Rerouted int
	// UnitsArrived and UnitsCompleted total the jobs' task-unit
	// demand.
	UnitsArrived, UnitsCompleted float64
	// Throughput is UnitsCompleted per epoch.
	Throughput float64
	// JobsPerEpoch is Completed per epoch.
	JobsPerEpoch float64
	// Latency summarizes completed jobs' latency in epochs.
	Latency LatencySummary
}

// servedJob is the engine's per-job bookkeeping. It holds no
// pointers, so the job table's pages are never scanned by the garbage
// collector.
type servedJob struct {
	epoch     int     // arrival epoch
	units     float64 // demanded units
	remaining float64 // units still to produce
	completed int     // completion epoch, -1 while queued
}

// The job table's page length, in jobs.
const (
	jobPageBits = 12
	jobPageSize = 1 << jobPageBits
)

// jobTable holds the run's jobs indexed by ID in fixed-size pages:
// adding a job never moves the ones before it, and a run allocates one
// page per jobPageSize jobs instead of regrowing one slice.
type jobTable struct {
	pages []*[jobPageSize]servedJob
	n     int
}

// add appends j and returns its ID.
func (t *jobTable) add(j servedJob) int {
	id := t.n
	if id&(jobPageSize-1) == 0 {
		t.pages = append(t.pages, new([jobPageSize]servedJob))
	}
	*t.at(id) = j
	t.n++
	return id
}

// at returns job id's entry.
func (t *jobTable) at(id int) *servedJob {
	return &t.pages[id>>jobPageBits][id&(jobPageSize-1)]
}

// dispatchRec is one (re)dispatch of a job. The engine logs them only
// when tracing, for the post-run span tree.
type dispatchRec struct {
	job     int
	rack    int
	epoch   int
	reroute bool
}

// jobQueue is a rack's FIFO of job IDs. Popping advances head instead
// of reslicing, and a push into a full buffer first slides the live
// entries to the front, so a queue reuses its buffer once it has grown
// to the rack's deepest backlog.
type jobQueue struct {
	ids  []int
	head int
}

func (q *jobQueue) len() int { return len(q.ids) - q.head }

func (q *jobQueue) front() int { return q.ids[q.head] }

func (q *jobQueue) push(id int) {
	if len(q.ids) == cap(q.ids) && q.head > 0 {
		q.ids = q.ids[:copy(q.ids, q.ids[q.head:])]
		q.head = 0
	}
	q.ids = append(q.ids, id)
}

func (q *jobQueue) pop() {
	q.head++
	if q.head == len(q.ids) {
		q.ids, q.head = q.ids[:0], 0
	}
}

// rackState is the engine's per-rack live state.
type rackState struct {
	// stepper is driven by the rack's owning worker until the
	// dispatcher has received the rack's last epoch; only then does the
	// dispatcher finalize it.
	stepper *sim.Stepper
	// steps carries the rack's epochs, in order, from its worker to
	// the dispatcher.
	steps chan stepResult
	// snap points at the rack's entry in the engine's snapshot slice,
	// the one copy of the state Config.Router reads.
	snap  *cluster.RackSnapshot
	queue jobQueue
	pr    float64
	jobs  int // completed job count
	units float64
}

// stepResult is one rack epoch as its worker hands it over.
type stepResult struct {
	stats sim.EpochStats
	err   error
}

// runAhead is how many epochs a rack's simulation may run ahead of the
// dispatcher. A few epochs of slack keep the workers busy while the
// dispatcher routes; a deeper buffer gave no more throughput and a
// longer per-epoch tail.
const runAhead = 4

// ewmaAlpha smooths each rack's observed production into
// RackSnapshot.RateUnits: high enough to track recovery transitions
// within a few epochs, low enough that one noisy epoch does not flap
// the routing decision.
const ewmaAlpha = 0.25

// Serve runs the event-driven serving loop: per epoch, fault kills
// fire and their queues reroute, new arrivals are dispatched one at a
// time through Config.Router against live snapshots, and each alive
// rack's queue drains FIFO against the units the rack actually produced
// that epoch. The racks' sprinting games do not depend on routing, so
// worker goroutines step them up to runAhead epochs ahead of this loop.
// See the package comment for the determinism contract.
//
// Serve errors if every rack dies (nothing can serve) or if any
// internal invariant — job conservation above all — breaks. It returns,
// on every path, only after every stepping goroutine has exited, so no
// rack policy is called after Serve returns.
func Serve(cfg Config) (_ *Result, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cc := cfg.Cluster
	nRacks := len(cc.Racks)
	workers := cc.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > nRacks {
		workers = nRacks
	}

	// snaps is the only store of the racks' observable state: each
	// rackState updates its entry in place and the router reads the
	// slice directly, so a dispatch copies nothing.
	snaps := make([]cluster.RackSnapshot, nRacks)
	racks := make([]rackState, nRacks)
	for i := range racks {
		simCfg := cc.RackSimConfig(i)
		pol, err := cc.Policy(i, cc.Racks[i], simCfg)
		if err != nil {
			return nil, fmt.Errorf("route: rack %d policy: %w", i, err)
		}
		st, err := sim.NewStepper(simCfg, pol)
		if err != nil {
			return nil, fmt.Errorf("route: rack %d: %w", i, err)
		}
		nMin, nMax := simCfg.Game.Trip.Bounds()
		agents := simCfg.Game.N
		snaps[i] = cluster.RackSnapshot{
			Rack:       i,
			Name:       cc.RackName(i),
			Alive:      true,
			Agents:     agents,
			UPSCharge:  1,
			NMin:       nMin,
			NMax:       nMax,
			TripMargin: 1 - simCfg.Game.Trip.Ptrip(0),
			// Until observed: a healthy rack retires ~1 unit per
			// agent-epoch.
			RateUnits: float64(agents),
		}
		racks[i] = rackState{
			stepper: st,
			steps:   make(chan stepResult, runAhead),
			snap:    &snaps[i],
			pr:      simCfg.Game.Pr,
		}
	}

	kills := make([]int, nRacks)
	for i := range kills {
		kills[i] = -1
	}
	if cc.Faults.Active() {
		kills = cc.Faults.Schedule(cc.BaseSeed, nRacks, cc.Epochs)
	}
	arrivalRNG := stats.NewRNG(cluster.MixSeed(cc.BaseSeed, -3))

	// The route.serve root opens before the loop: its route.rack_dead and
	// route.epoch children are emitted live (the loop is single-threaded,
	// so their birth order is deterministic), the per-job spans post-run.
	var root *telemetry.Span
	if cc.Tracer.Enabled() {
		traceSeed := cfg.TraceSeed
		if traceSeed == 0 {
			traceSeed = cluster.MixSeed(cc.BaseSeed, -4)
		}
		root = cc.Tracer.StartSpan("route.serve", telemetry.TraceIDFromSeed(traceSeed))
		defer func() {
			if err != nil {
				root.EndWith(telemetry.Fields{"error": err.Error()})
			}
		}()
	}
	tracing := root != nil

	// The stepping workers: worker w owns racks w, w+workers, ... and
	// steps them epoch by epoch, never a rack at or past its kill epoch,
	// so a killed rack's stepper holds exactly the epochs before its
	// kill when the dispatcher finalizes it. Each stepper owns its RNG
	// stream and has nil telemetry sinks, so how far a worker runs ahead
	// cannot affect results. stop ends the workers early when Serve
	// returns an error; the deferred Wait keeps any of them from
	// outliving Serve.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for epoch := 0; epoch < cc.Epochs; epoch++ {
				for i := w; i < nRacks; i += workers {
					if kills[i] >= 0 && epoch >= kills[i] {
						continue
					}
					select {
					case <-stop:
						return
					default:
					}
					rs := &racks[i]
					es, err := rs.stepper.Step()
					select {
					case rs.steps <- stepResult{es, err}:
					case <-stop:
						return
					}
				}
			}
		}()
	}

	var (
		jobs jobTable
		// dlog records every (re)dispatch for the post-run span tree;
		// it stays empty when tracing is off.
		dlog []dispatchRec
	)
	var failed []cluster.RackError
	res := &Result{
		Policy:   cfg.Router.Name(),
		Arrivals: cfg.Arrivals.Name(),
		Epochs:   cc.Epochs,
		Workers:  workers,
	}
	// Latency lives in a lock-free histogram with 1-epoch buckets
	// (coarser only for very long runs), so tail quantiles are exact to
	// the bucket width.
	width := 1.0
	for float64(cc.Epochs)/width > 2048 {
		width *= 2
	}
	latBuckets := telemetry.LinearBuckets(width, width, int(float64(cc.Epochs)/width)+1)
	latHist := telemetry.NewRegistry().Histogram("route.latency_epochs", latBuckets)

	aliveCount := nRacks

	// dispatch routes one job through the policy and queues it,
	// updating the target's snapshot so later picks in the same epoch
	// see the load.
	dispatch := func(id, epoch int, reroute bool) error {
		j := jobs.at(id)
		pick := cfg.Router.Pick(Job{ID: id, Epoch: j.epoch, Units: j.units}, snaps)
		if pick < 0 || pick >= nRacks {
			return fmt.Errorf("route: policy %s picked rack %d of %d", cfg.Router.Name(), pick, nRacks)
		}
		rs := &racks[pick]
		if !rs.snap.Alive {
			return fmt.Errorf("route: policy %s routed job %d to dead rack %d", cfg.Router.Name(), id, pick)
		}
		rs.queue.push(id)
		rs.snap.QueueDepth++
		rs.snap.BacklogUnits += j.remaining
		if reroute {
			res.Rerouted++
		}
		if tracing {
			dlog = append(dlog, dispatchRec{job: id, rack: pick, epoch: epoch, reroute: reroute})
		}
		return nil
	}

	for epoch := 0; epoch < cc.Epochs; epoch++ {
		// 1. Faults: kills scheduled for this epoch fire before the
		// rack simulates it, exactly as the batch engine stops a rack.
		// The dead rack's queue reroutes immediately, FIFO order
		// preserved, partial progress (remaining units) kept.
		for i := range racks {
			rs := &racks[i]
			if kills[i] != epoch || !rs.snap.Alive {
				continue
			}
			rs.snap.Alive = false
			aliveCount--
			partial := rs.stepper.Finalize()
			fault := &cluster.RackFault{Rack: i, Epoch: epoch}
			failed = append(failed, cluster.RackError{
				Rack: i, Name: rs.snap.Name, Epoch: epoch, Attempts: 1,
				Err: fault, Partial: partial,
			})
			orphans := rs.queue.ids[rs.queue.head:]
			rs.queue = jobQueue{}
			rs.snap.QueueDepth = 0
			rs.snap.BacklogUnits = 0
			rs.snap.RateUnits = 0
			if tracing {
				root.Child("route.rack_dead").EndWith(telemetry.Fields{
					"rack":     i,
					"name":     rs.snap.Name,
					"epoch":    epoch,
					"requeued": len(orphans),
				})
			}
			if aliveCount == 0 {
				return nil, fmt.Errorf("route: all %d racks dead at epoch %d with %d jobs queued", nRacks, epoch, len(orphans))
			}
			for _, id := range orphans {
				if err := dispatch(id, epoch, true); err != nil {
					return nil, err
				}
			}
		}

		// 2. Arrivals, dispatched one at a time against live snapshots
		// — routing inside the loop, never batch-dispatch-then-run.
		arrived := cfg.Arrivals.Epoch(epoch, arrivalRNG)
		for _, a := range arrived {
			if a.Units <= 0 {
				return nil, fmt.Errorf("route: arrival process %s produced a job of %v units at epoch %d", cfg.Arrivals.Name(), a.Units, epoch)
			}
			id := jobs.add(servedJob{epoch: epoch, units: a.Units, remaining: a.Units, completed: -1})
			res.UnitsArrived += a.Units
			if err := dispatch(id, epoch, false); err != nil {
				return nil, err
			}
		}

		// 3. Take each alive rack's epoch from its worker, in
		// rack-index order, and drain its queue single-threaded: the
		// units the rack produced this epoch retire its FIFO backlog.
		// Leftover capacity is idle serving headroom, not banked.
		completedThisEpoch := 0
		for i := range racks {
			rs := &racks[i]
			if !rs.snap.Alive {
				continue
			}
			step := <-rs.steps
			if step.err != nil {
				return nil, fmt.Errorf("route: rack %d step: %w", i, step.err)
			}
			es := step.stats
			rs.units += es.Units
			capacity := es.Units
			for rs.queue.len() > 0 && capacity > 0 {
				j := jobs.at(rs.queue.front())
				if j.remaining > capacity {
					j.remaining -= capacity
					rs.snap.BacklogUnits -= capacity
					capacity = 0
					break
				}
				capacity -= j.remaining
				rs.snap.BacklogUnits -= j.remaining
				j.remaining = 0
				j.completed = epoch
				rs.queue.pop()
				rs.snap.QueueDepth--
				rs.jobs++
				completedThisEpoch++
				latHist.Observe(float64(epoch - j.epoch + 1))
				res.UnitsCompleted += j.units
			}
			if rs.snap.BacklogUnits < 1e-9 {
				rs.snap.BacklogUnits = 0
			}

			// 4. Fold the epoch's observables into the rack's snapshot:
			// what the router sees next epoch.
			rs.snap.Epoch = epoch + 1
			rs.snap.Sprinters = es.Sprinters
			rs.snap.Recovering = es.Recovering
			rs.snap.InRecovery = es.RackRecovering
			rs.snap.RecoveryExit = es.RecoveryExit
			rs.snap.TripMargin = 1 - es.Ptrip
			if es.RackRecovering && rs.pr < 1 {
				rs.snap.UPSCharge = es.RecoveryExit / (1 - rs.pr)
			} else {
				rs.snap.UPSCharge = 1
			}
			rs.snap.RateUnits = (1-ewmaAlpha)*rs.snap.RateUnits + ewmaAlpha*es.Units
		}

		if tracing {
			queued, backlog := 0, 0.0
			for i := range snaps {
				queued += snaps[i].QueueDepth
				backlog += snaps[i].BacklogUnits
			}
			root.Child("route.epoch").EndWith(telemetry.Fields{
				"epoch":     epoch,
				"arrived":   len(arrived),
				"completed": completedThisEpoch,
				"queued":    queued,
				"backlog":   backlog,
			})
		}
	}

	// Finalize: full results for survivors, partials already captured
	// for the dead.
	res.Racks = make([]RackServe, nRacks)
	fi := 0
	for i := range racks {
		rs := &racks[i]
		r := RackServe{
			Rack: i, Name: rs.snap.Name, Alive: rs.snap.Alive,
			Jobs: rs.jobs, Units: rs.units, QueueDepth: rs.queue.len(),
		}
		if rs.snap.Alive {
			r.Sim = rs.stepper.Finalize()
			r.Epochs = r.Sim.Epochs
		} else {
			r.Sim = failed[fi].Partial
			r.Epochs = failed[fi].Epoch
			fi++
		}
		res.Racks[i] = r
	}
	res.Failed = failed

	res.Arrived = jobs.n
	for id := 0; id < jobs.n; id++ {
		if jobs.at(id).completed >= 0 {
			res.Completed++
		} else {
			res.Unfinished++
		}
	}
	if res.Arrived != res.Completed+res.Unfinished {
		return nil, fmt.Errorf("route: conservation violated: %d arrived != %d completed + %d unfinished",
			res.Arrived, res.Completed, res.Unfinished)
	}
	res.Throughput = res.UnitsCompleted / float64(cc.Epochs)
	res.JobsPerEpoch = float64(res.Completed) / float64(cc.Epochs)
	snap := latHist.Snapshot()
	qs := latHist.Quantiles(0.50, 0.90, 0.99, 0.999)
	res.Latency = LatencySummary{
		P50: qs[0], P90: qs[1], P99: qs[2], P999: qs[3],
		Mean: snap.Mean, Max: snap.Max,
	}

	emitServeMetrics(cc.Metrics, res, &jobs, latBuckets)
	if tracing {
		emitServeTrace(root, res, &jobs, dlog)
	}
	return res, nil
}

// emitServeMetrics folds the serving outcome into the cluster's
// metrics registry, including the full per-job latency distribution.
func emitServeMetrics(m *telemetry.Registry, res *Result, jobs *jobTable, latBuckets []float64) {
	if m == nil {
		return
	}
	m.Counter("route.arrivals").Add(int64(res.Arrived))
	m.Counter("route.completed").Add(int64(res.Completed))
	m.Counter("route.unfinished").Add(int64(res.Unfinished))
	m.Counter("route.rerouted").Add(int64(res.Rerouted))
	m.Gauge("route.throughput_units").Set(res.Throughput)
	m.Gauge("route.latency_p99").Set(res.Latency.P99)
	sink := m.Histogram("route.latency_epochs", latBuckets)
	for id := 0; id < jobs.n; id++ {
		if j := jobs.at(id); j.completed >= 0 {
			sink.Observe(float64(j.completed - j.epoch + 1))
		}
	}
}

// emitServeTrace completes the serving span tree under the route.serve
// root: one route.arrival span per job, each with a route.dispatch
// child per (re)dispatch, each with a cluster.rack child naming the
// rack that held the job — the route.arrival → route.dispatch →
// cluster.rack chain cmd/traceview renders — and then the root itself,
// summarizing the run. Spans are emitted post-run in job order, so the
// stream is byte-identical for every worker count.
//
// dlog is the run's dispatch log in dispatch order; a stable sort by
// job groups each job's dispatches while keeping their order.
func emitServeTrace(root *telemetry.Span, res *Result, jobs *jobTable, dlog []dispatchRec) {
	slices.SortStableFunc(dlog, func(a, b dispatchRec) int { return cmp.Compare(a.job, b.job) })
	for id := 0; id < jobs.n; id++ {
		j := jobs.at(id)
		arrival := root.Child("route.arrival")
		n := 0
		for n < len(dlog) && dlog[n].job == id {
			n++
		}
		for _, d := range dlog[:n] {
			disp := arrival.Child("route.dispatch")
			rack := disp.Child("cluster.rack")
			rack.EndWith(telemetry.Fields{
				"rack": d.rack,
				"name": res.Racks[d.rack].Name,
			})
			disp.EndWith(telemetry.Fields{
				"rack":    d.rack,
				"epoch":   d.epoch,
				"reroute": d.reroute,
			})
		}
		fields := telemetry.Fields{
			"job":       id,
			"epoch":     j.epoch,
			"units":     j.units,
			"completed": j.completed,
		}
		if j.completed >= 0 {
			fields["latency"] = j.completed - j.epoch + 1
		}
		arrival.EndWith(fields)
		dlog = dlog[n:]
	}
	root.EndWith(telemetry.Fields{
		"policy":       res.Policy,
		"arrivals":     res.Arrivals,
		"arrived":      res.Arrived,
		"completed":    res.Completed,
		"unfinished":   res.Unfinished,
		"rerouted":     res.Rerouted,
		"throughput":   res.Throughput,
		"latency_p50":  res.Latency.P50,
		"latency_p99":  res.Latency.P99,
		"latency_p999": res.Latency.P999,
	})
}
