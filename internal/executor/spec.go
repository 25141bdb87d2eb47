// Package executor is a discrete-event simulation of a Spark-style
// task-parallel engine running on a chip multiprocessor that can sprint.
//
// An application is a sequence of jobs; each job is a chain of stages,
// each waiting for the one before; each stage is a set of tasks scheduled
// dynamically onto the available cores (§5 of the paper: "The Spark
// run-time engine dynamically schedules tasks to use available cores and
// maximize parallelism"). Run executes an application in normal mode
// (3 cores @ 1.2 GHz) or sprint mode (12 cores @ 2.7 GHz) and returns its
// task-completion trace. EpochSpeedups aligns the two traces by completed
// work and takes, epoch by epoch, the ratio of tasks completed: the
// per-epoch sprint utility, the quantity the sprinting game's agents
// estimate online.
package executor

import (
	"errors"
	"fmt"

	"sprintgame/internal/stats"
	"sprintgame/internal/workload"
)

// Mode is a chip operating point.
type Mode struct {
	Cores   int
	FreqGHz float64
}

// The paper's two operating points (§3.1).
var (
	Normal = Mode{Cores: 3, FreqGHz: 1.2}
	Sprint = Mode{Cores: 12, FreqGHz: 2.7}
)

// RefFreqGHz is the frequency at which task base durations are specified.
const RefFreqGHz = 1.2

// StageSpec describes one stage of a job.
type StageSpec struct {
	// Name labels the stage.
	Name string
	// Tasks is the number of tasks in the stage. The paper: "The total
	// number of tasks in a job is constant and independent of the
	// available hardware resources."
	Tasks int
	// MeanTaskS is the mean task duration in seconds on one core at
	// RefFreqGHz with no memory stalls removed.
	MeanTaskS float64
	// TaskCV is the coefficient of variation of task durations
	// (log-normal task sizes).
	TaskCV float64
	// MemBoundFrac is the fraction of task time that does not scale with
	// core frequency (memory/shuffle-bound work).
	MemBoundFrac float64
	// MaxParallelism caps how many of the stage's tasks can run
	// concurrently (data partitioning limit). 0 means unlimited.
	MaxParallelism int
}

// Validate checks the stage parameters.
func (s StageSpec) Validate() error {
	if s.Tasks <= 0 {
		return fmt.Errorf("executor: stage %q needs tasks", s.Name)
	}
	if s.MeanTaskS <= 0 {
		return fmt.Errorf("executor: stage %q needs positive task duration", s.Name)
	}
	if s.TaskCV < 0 {
		return fmt.Errorf("executor: stage %q has negative task CV", s.Name)
	}
	if s.MemBoundFrac < 0 || s.MemBoundFrac > 1 {
		return fmt.Errorf("executor: stage %q memory-bound fraction %v outside [0,1]", s.Name, s.MemBoundFrac)
	}
	if s.MaxParallelism < 0 {
		return fmt.Errorf("executor: stage %q has negative parallelism cap", s.Name)
	}
	return nil
}

// JobSpec is a sequence of dependent stages.
type JobSpec struct {
	Name   string
	Stages []StageSpec
}

// AppSpec is a complete application: jobs complete in sequence while
// tasks within a stage complete out of order (§5).
type AppSpec struct {
	Name string
	Jobs []JobSpec
}

// Validate checks the whole application.
func (a AppSpec) Validate() error {
	if len(a.Jobs) == 0 {
		return errors.New("executor: application has no jobs")
	}
	for _, j := range a.Jobs {
		if len(j.Stages) == 0 {
			return fmt.Errorf("executor: job %q has no stages", j.Name)
		}
		for _, s := range j.Stages {
			if err := s.Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// stageParams decomposes a target sprint speedup into a parallelism cap
// and a memory-bound fraction. The sprint's ideal gain is 4x from cores
// times 2.25x from frequency; targets are achieved by limiting stage
// parallelism (integer core gains) and adding memory-bound time
// (fractional frequency gains).
func stageParams(target float64) (maxPar int, memFrac float64) {
	const freqRatio = 2.7 / RefFreqGHz // 2.25
	options := []struct {
		par  int
		gain float64
	}{
		{3, 1}, {4, 4.0 / 3}, {6, 2}, {8, 8.0 / 3}, {12, 4},
	}
	if target < 1 {
		target = 1
	}
	for _, o := range options {
		need := target / o.gain
		if need <= freqRatio {
			if need < 1 {
				need = 1
			}
			// Invert need = 1 / (m + (1-m)/freqRatio).
			m := (1/need - 1/freqRatio) / (1 - 1/freqRatio)
			return o.par, stats.Clamp(m, 0, 1)
		}
	}
	return 12, 0 // best achievable: ~9x
}

// AppForBenchmark synthesizes an executor application whose stages mirror
// the benchmark's phases: each job interleaves one stage per phase, with
// stage durations proportional to phase weights and stage parameters
// chosen so the stage's sprint speedup approximates the phase's mean
// utility (capped at the hardware's ~9x ideal).
func AppForBenchmark(b *workload.Benchmark, jobs int, rng *stats.RNG) (AppSpec, error) {
	if err := b.Validate(); err != nil {
		return AppSpec{}, err
	}
	if jobs <= 0 {
		return AppSpec{}, errors.New("executor: need at least one job")
	}
	app := AppSpec{Name: b.Name}
	for j := 0; j < jobs; j++ {
		job := JobSpec{Name: fmt.Sprintf("%s-job%d", b.Name, j)}
		for _, ph := range b.Phases {
			// Each job's stage draws its sprint benefit from the phase
			// distribution, so measured epoch gains reproduce the
			// phase's utility spread, not just its mean.
			target := ph.Utility.Sample(rng)
			par, mem := stageParams(target)
			// Stage work scales with the phase weight; task sizes jitter
			// across jobs so no two jobs are identical. Tasks are sized
			// so that a stage spans several sprint epochs — application
			// phases must outlive the epoch for agents to exploit them,
			// exactly as the paper's multi-minute Spark stages do.
			tasks := 24 + int(ph.Weight*160)
			mean := 2.0 * (0.8 + 0.4*rng.Float64())
			job.Stages = append(job.Stages, StageSpec{
				Name:           fmt.Sprintf("%s-%s", ph.Label, job.Name),
				Tasks:          tasks,
				MeanTaskS:      mean,
				TaskCV:         0.35,
				MemBoundFrac:   mem,
				MaxParallelism: par,
			})
		}
		app.Jobs = append(app.Jobs, job)
	}
	return app, app.Validate()
}
