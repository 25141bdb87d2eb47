package executor

import (
	"math"
	"testing"

	"sprintgame/internal/stats"
	"sprintgame/internal/workload"
)

func simpleApp(tasks int) AppSpec {
	return AppSpec{
		Name: "test",
		Jobs: []JobSpec{{
			Name: "j0",
			Stages: []StageSpec{{
				Name: "s0", Tasks: tasks, MeanTaskS: 0.5, TaskCV: 0.3,
			}},
		}},
	}
}

func TestSpecValidation(t *testing.T) {
	if err := (AppSpec{}).Validate(); err == nil {
		t.Error("empty app should fail")
	}
	if err := (AppSpec{Jobs: []JobSpec{{Name: "j"}}}).Validate(); err == nil {
		t.Error("stage-less job should fail")
	}
	bad := simpleApp(10)
	bad.Jobs[0].Stages[0].Tasks = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero tasks should fail")
	}
	bad = simpleApp(10)
	bad.Jobs[0].Stages[0].MeanTaskS = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero duration should fail")
	}
	bad = simpleApp(10)
	bad.Jobs[0].Stages[0].MemBoundFrac = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("bad memory fraction should fail")
	}
	bad = simpleApp(10)
	bad.Jobs[0].Stages[0].TaskCV = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative CV should fail")
	}
	bad = simpleApp(10)
	bad.Jobs[0].Stages[0].MaxParallelism = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative parallelism should fail")
	}
}

func TestRunCompletesAllTasks(t *testing.T) {
	app := simpleApp(100)
	res, err := Run(app, Normal, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 100 || len(res.Events) != 100 {
		t.Fatalf("completed %d tasks", res.Total)
	}
	if res.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	// Events are sorted and end at the makespan.
	prev := 0.0
	for _, e := range res.Events {
		if e.TimeS < prev {
			t.Fatal("events not sorted")
		}
		prev = e.TimeS
	}
	if math.Abs(prev-res.Makespan) > 1e-9 {
		t.Errorf("last event %v != makespan %v", prev, res.Makespan)
	}
}

func TestRunDeterministicAndModeInvariantWork(t *testing.T) {
	app := simpleApp(50)
	a, _ := Run(app, Normal, 9)
	b, _ := Run(app, Normal, 9)
	if a.Makespan != b.Makespan {
		t.Error("same seed, different makespan")
	}
	c, _ := Run(app, Sprint, 9)
	if c.Total != a.Total {
		t.Error("modes did different amounts of work")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(AppSpec{}, Normal, 1); err == nil {
		t.Error("invalid app should error")
	}
	if _, err := Run(simpleApp(5), Mode{Cores: 0, FreqGHz: 1}, 1); err == nil {
		t.Error("invalid mode should error")
	}
}

func TestSprintFasterThanNormal(t *testing.T) {
	app := simpleApp(200)
	n, _ := Run(app, Normal, 3)
	s, _ := Run(app, Sprint, 3)
	if s.Makespan >= n.Makespan {
		t.Fatalf("sprint (%v) not faster than normal (%v)", s.Makespan, n.Makespan)
	}
	speedup := n.Makespan / s.Makespan
	// Wide CPU-bound stage: near the ideal 4 * 2.25 = 9.
	if speedup < 5 || speedup > 9.5 {
		t.Errorf("speedup = %v, want near ideal 9", speedup)
	}
}

func TestMemoryBoundLimitsSpeedup(t *testing.T) {
	app := simpleApp(200)
	app.Jobs[0].Stages[0].MemBoundFrac = 1 // frequency does nothing
	n, _ := Run(app, Normal, 3)
	s, _ := Run(app, Sprint, 3)
	speedup := n.Makespan / s.Makespan
	// Only the 4x core gain remains.
	if speedup < 3 || speedup > 4.5 {
		t.Errorf("memory-bound speedup = %v, want ~4", speedup)
	}
}

func TestParallelismCapLimitsSpeedup(t *testing.T) {
	app := simpleApp(200)
	app.Jobs[0].Stages[0].MaxParallelism = 3 // cores beyond 3 are useless
	n, _ := Run(app, Normal, 3)
	s, _ := Run(app, Sprint, 3)
	speedup := n.Makespan / s.Makespan
	// Only the 2.25x frequency gain remains.
	if speedup < 1.8 || speedup > 2.7 {
		t.Errorf("parallelism-capped speedup = %v, want ~2.25", speedup)
	}
}

func TestStageBarrier(t *testing.T) {
	// A two-stage job: no task of stage 1 may complete before every task
	// of stage 0 has finished.
	app := AppSpec{
		Name: "barrier",
		Jobs: []JobSpec{{
			Name: "j",
			Stages: []StageSpec{
				{Name: "s0", Tasks: 20, MeanTaskS: 0.5, TaskCV: 0.5},
				{Name: "s1", Tasks: 20, MeanTaskS: 0.5, TaskCV: 0.5},
			},
		}},
	}
	res, _ := Run(app, Sprint, 5)
	lastS0, firstS1 := 0.0, math.Inf(1)
	for _, e := range res.Events {
		if e.Stage == 0 && e.TimeS > lastS0 {
			lastS0 = e.TimeS
		}
		if e.Stage == 1 && e.TimeS < firstS1 {
			firstS1 = e.TimeS
		}
	}
	if firstS1 < lastS0 {
		t.Errorf("stage 1 task at %v before stage 0 drained at %v", firstS1, lastS0)
	}
}

func TestCumulativeAt(t *testing.T) {
	app := simpleApp(50)
	res, _ := Run(app, Normal, 7)
	if res.CumulativeAt(-1) != 0 {
		t.Error("cumulative before start should be 0")
	}
	if res.CumulativeAt(res.Makespan+1) != 50 {
		t.Error("cumulative after end should be total")
	}
	mid := res.CumulativeAt(res.Makespan / 2)
	if mid <= 0 || mid >= 50 {
		t.Errorf("cumulative at midpoint = %v", mid)
	}
}

func TestEpochSpeedups(t *testing.T) {
	app := simpleApp(3000)
	n, _ := Run(app, Normal, 11)
	s, _ := Run(app, Sprint, 11)
	gains, err := EpochSpeedups(n, s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(gains) == 0 {
		t.Fatal("no epochs")
	}
	mean := stats.Mean(gains)
	if mean < 5 || mean > 9.5 {
		t.Errorf("mean epoch gain = %v, want near ideal for wide stage", mean)
	}
	for _, g := range gains {
		if g < 0.5 || g > 15 {
			t.Errorf("implausible epoch gain %v", g)
		}
	}
}

func TestEpochSpeedupsErrors(t *testing.T) {
	app := simpleApp(50)
	n, _ := Run(app, Normal, 1)
	s, _ := Run(app, Sprint, 1)
	if _, err := EpochSpeedups(n, s, 0); err == nil {
		t.Error("zero epoch should error")
	}
	other, _ := Run(simpleApp(10), Sprint, 1)
	if _, err := EpochSpeedups(n, other, 10); err == nil {
		t.Error("mismatched work should error")
	}
	if _, err := EpochSpeedups(n, s, 1e9); err == nil {
		t.Error("epoch longer than run should error")
	}
}

func TestStageParamsRoundTrip(t *testing.T) {
	// stageParams should produce parameters whose implied speedup matches
	// the target within the discrete parallelism grid.
	const freqRatio = 2.25
	for _, target := range []float64{1, 1.5, 2.2, 3, 4, 5.5, 7, 9, 12} {
		par, mem := stageParams(target)
		parGain := float64(min(par, 12)) / float64(min(par, 3))
		freqGain := 1 / (mem + (1-mem)/freqRatio)
		implied := parGain * freqGain
		want := math.Min(target, 9)
		if math.Abs(implied-want) > 0.35*want {
			t.Errorf("target %v: implied %v (par=%d mem=%v)", target, implied, par, mem)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestAppForBenchmarkAllCatalog(t *testing.T) {
	rng := stats.NewRNG(1)
	for _, b := range workload.Catalog() {
		app, err := AppForBenchmark(b, 5, rng)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if len(app.Jobs) != 5 {
			t.Errorf("%s: %d jobs", b.Name, len(app.Jobs))
		}
		if len(app.Jobs[0].Stages) != len(b.Phases) {
			t.Errorf("%s: stage/phase mismatch", b.Name)
		}
	}
	if _, err := AppForBenchmark(&workload.Benchmark{}, 1, rng); err == nil {
		t.Error("invalid benchmark should error")
	}
	b, _ := workload.ByName("naive")
	if _, err := AppForBenchmark(b, 0, rng); err == nil {
		t.Error("zero jobs should error")
	}
}

func TestCharacterizeMatchesFigure1(t *testing.T) {
	// Figure 1's qualitative claims: every benchmark speeds up 2-7x when
	// sprinting and draws roughly 1.8x the power; sprinting runs hotter.
	for _, b := range workload.Catalog() {
		c, err := Characterize(b, 20, 42, 10, func(w float64) float64 { return 25 + w/4.5 })
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if c.Speedup < 2 || c.Speedup > 7.5 {
			t.Errorf("%s: speedup %v outside Figure 1 band", b.Name, c.Speedup)
		}
		if c.PowerRatio < 1.5 || c.PowerRatio > 2.1 {
			t.Errorf("%s: power ratio %v, want ~1.8", b.Name, c.PowerRatio)
		}
		if c.SprintTempC <= c.NormalTempC {
			t.Errorf("%s: sprinting should run hotter", b.Name)
		}
		if len(c.EpochGains) == 0 {
			t.Errorf("%s: no epoch gains", b.Name)
		}
	}
}

func TestPowerModelOrdering(t *testing.T) {
	pm := DefaultPowerModel()
	if pm.Power(Sprint, 0) <= pm.Power(Normal, 0) {
		t.Error("sprint should draw more power")
	}
	// Memory-bound workloads draw less dynamic power.
	if pm.Power(Sprint, 1) >= pm.Power(Sprint, 0) {
		t.Error("memory-bound sprint should draw less")
	}
	// Degenerate mode falls back to uncore.
	if pm.Power(Mode{}, 0) != pm.UncoreW {
		t.Error("zero mode should draw uncore only")
	}
}

func TestAppMemFrac(t *testing.T) {
	app := simpleApp(10)
	if AppMemFrac(app) != 0 {
		t.Error("no memory-bound stages should give 0")
	}
	app.Jobs[0].Stages[0].MemBoundFrac = 0.5
	if AppMemFrac(app) != 0.5 {
		t.Error("single-stage memory fraction wrong")
	}
	if AppMemFrac(AppSpec{}) != 0 {
		t.Error("empty app should give 0")
	}
}

func TestLogNormalParams(t *testing.T) {
	mu, sigma := logNormalParams(2, 0)
	if sigma != 0 || math.Abs(math.Exp(mu)-2) > 1e-12 {
		t.Error("zero-CV params wrong")
	}
	// With CV > 0 the implied mean of the log-normal matches the request.
	mu, sigma = logNormalParams(3, 0.5)
	implied := math.Exp(mu + sigma*sigma/2)
	if math.Abs(implied-3) > 1e-9 {
		t.Errorf("implied mean = %v", implied)
	}
}
