package executor

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"sprintgame/internal/stats"
)

// CompletionEvent records one finished task.
type CompletionEvent struct {
	// TimeS is the completion time in seconds from application start.
	TimeS float64
	// Job, Stage, Task identify the completed task.
	Job, Stage, Task int
}

// Result is the outcome of executing an application in a fixed mode.
type Result struct {
	App      string
	Mode     Mode
	Events   []CompletionEvent // sorted by time
	Makespan float64
	Total    int
}

// Run executes the application in the given mode and returns its
// completion trace. Task durations are drawn log-normally from each
// stage's mean and CV, identically across modes for the same seed: the
// same seed yields the same work, so normal-vs-sprint comparisons isolate
// the hardware difference exactly, mirroring the paper's fixed-work TPS
// methodology (§5).
func Run(app AppSpec, mode Mode, seed uint64) (*Result, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if mode.Cores <= 0 || mode.FreqGHz <= 0 {
		return nil, fmt.Errorf("executor: invalid mode %+v", mode)
	}
	rng := stats.NewRNG(seed)
	res := &Result{App: app.Name, Mode: mode}
	now := 0.0
	freqGain := mode.FreqGHz / RefFreqGHz
	for ji, job := range app.Jobs {
		for si, st := range job.Stages {
			// Draw base task durations (mode-independent work).
			durs := make([]float64, st.Tasks)
			mu, sigma := logNormalParams(st.MeanTaskS, st.TaskCV)
			for i := range durs {
				base := rng.LogNormal(mu, sigma)
				// Frequency only accelerates the compute-bound portion.
				durs[i] = base * (st.MemBoundFrac + (1-st.MemBoundFrac)/freqGain)
			}
			width := mode.Cores
			if st.MaxParallelism > 0 && st.MaxParallelism < width {
				width = st.MaxParallelism
			}
			// List-schedule onto `width` workers: each task goes to the
			// earliest-free worker, the paper's dynamic task scheduling.
			workers := make([]float64, width)
			for i := range workers {
				workers[i] = now
			}
			for ti, d := range durs {
				w := argmin(workers)
				workers[w] += d
				res.Events = append(res.Events, CompletionEvent{
					TimeS: workers[w], Job: ji, Stage: si, Task: ti,
				})
			}
			// The stage barrier: the next stage starts when all workers
			// drain.
			now = maxOf(workers)
		}
	}
	sort.Slice(res.Events, func(i, j int) bool { return res.Events[i].TimeS < res.Events[j].TimeS })
	res.Total = len(res.Events)
	res.Makespan = now
	return res, nil
}

// logNormalParams converts a mean and coefficient of variation into
// log-normal mu and sigma.
func logNormalParams(mean, cv float64) (mu, sigma float64) {
	if cv <= 0 {
		return math.Log(mean), 0
	}
	v := cv * cv
	sigma = math.Sqrt(math.Log(1 + v))
	mu = math.Log(mean) - sigma*sigma/2
	return
}

func argmin(xs []float64) int {
	best := 0
	for i := range xs {
		if xs[i] < xs[best] {
			best = i
		}
	}
	return best
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// CumulativeAt returns the number of tasks completed by time tS.
func (r *Result) CumulativeAt(tS float64) float64 {
	// Events are sorted; binary search for the first event after tS.
	i := sort.Search(len(r.Events), func(i int) bool { return r.Events[i].TimeS > tS })
	return float64(i)
}

// timeForCumulative returns the earliest time by which k tasks are
// complete. k beyond the total returns the makespan.
func (r *Result) timeForCumulative(k float64) float64 {
	idx := int(math.Ceil(k))
	if idx <= 0 {
		return 0
	}
	if idx > len(r.Events) {
		return r.Makespan
	}
	return r.Events[idx-1].TimeS
}

// EpochSpeedups implements the paper's trace-interpolation methodology
// (§5): for each epoch of the normal-mode execution it measures the tasks
// completed, finds the work-aligned position in the sprint-mode execution
// (the time at which the sprint run had completed the same cumulative
// work), and measures the tasks the sprint run completes in one epoch
// from there. The ratio is the epoch's utility from sprinting. Epochs
// after either run finishes its work are dropped.
func EpochSpeedups(normal, sprint *Result, epochS float64) ([]float64, error) {
	if epochS <= 0 {
		return nil, errors.New("executor: epoch must be positive")
	}
	if normal.Total != sprint.Total {
		return nil, fmt.Errorf("executor: runs did different work (%d vs %d tasks)", normal.Total, sprint.Total)
	}
	var out []float64
	for t := 0.0; t+epochS <= normal.Makespan; t += epochS {
		wn := normal.CumulativeAt(t+epochS) - normal.CumulativeAt(t)
		if wn <= 0 {
			continue
		}
		s := sprint.timeForCumulative(normal.CumulativeAt(t))
		if s+epochS > sprint.Makespan {
			break // sprint run exhausts its work inside this epoch
		}
		ws := sprint.CumulativeAt(s+epochS) - sprint.CumulativeAt(s)
		out = append(out, ws/wn)
	}
	if len(out) == 0 {
		return nil, errors.New("executor: execution shorter than one epoch")
	}
	return out, nil
}
