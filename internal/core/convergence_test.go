package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"sprintgame/internal/telemetry"
	"sprintgame/internal/workload"
)

// TestCatalogConvergenceReporting pins down the solver's convergence
// reporting for every catalog workload: Algorithm 1 must converge within
// the iteration budget, report an accurate iteration count, and produce
// a per-iteration residual trace whose tail shrinks monotonically once
// the damped iteration settles (the early iterations may blip where the
// trajectory crosses the kinks of Eq. 11).
func TestCatalogConvergenceReporting(t *testing.T) {
	cfg := testConfig()
	for _, b := range workload.Catalog() {
		f, err := b.DiscreteDensity(250)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		eq, err := SingleClass(b.Name, f, cfg)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if !eq.Converged {
			t.Errorf("%s: did not converge", b.Name)
			continue
		}
		if eq.Iterations < 1 || eq.Iterations > cfg.MaxFixedPointIter {
			t.Errorf("%s: iterations = %d, budget %d", b.Name, eq.Iterations, cfg.MaxFixedPointIter)
		}
		r := eq.Residuals
		if len(r) != eq.Iterations {
			t.Fatalf("%s: %d residuals for %d iterations", b.Name, len(r), eq.Iterations)
		}
		if last := r[len(r)-1]; last >= cfg.FixedPointTol {
			t.Errorf("%s: final residual %v not under tolerance %v", b.Name, last, cfg.FixedPointTol)
		}
		if r[len(r)-1] >= r[0] {
			t.Errorf("%s: residual did not shrink (%v -> %v)", b.Name, r[0], r[len(r)-1])
		}
		// Monotone tail: from the midpoint on, each damped step must
		// shrink the residual.
		for i := len(r)/2 + 1; i < len(r); i++ {
			if r[i] > r[i-1] {
				t.Errorf("%s: residual grew at iteration %d: %v -> %v", b.Name, i+1, r[i-1], r[i])
			}
		}
	}
}

func TestUnconvergedResidualTraceLength(t *testing.T) {
	cfg := testConfig()
	cfg.MaxFixedPointIter = 3
	eq, err := SingleClass("decision", density(t, "decision"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eq.Converged {
		t.Fatal("3 iterations from P=1 should not converge")
	}
	if len(eq.Residuals) != 3 {
		t.Errorf("residuals = %v, want length 3", eq.Residuals)
	}
}

func TestSolverTelemetry(t *testing.T) {
	cfg := testConfig()
	cfg.Metrics = telemetry.NewRegistry()
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf)
	root := tr.StartSpan("test", telemetry.TraceIDFromSeed(1))
	cfg.Span = root

	// A nil cache solves directly; with a nil parent the core.solve span
	// hangs under cfg.Span.
	eq, err := (*SolveCache)(nil).FindEquilibrium(
		[]AgentClass{{Name: "decision", Count: cfg.N, Density: density(t, "decision")}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if got := cfg.Metrics.Counter("solver.runs").Value(); got != 1 {
		t.Errorf("solver.runs = %d", got)
	}
	if got := cfg.Metrics.Counter("solver.converged").Value(); got != 1 {
		t.Errorf("solver.converged = %d", got)
	}
	h := cfg.Metrics.Histogram("solver.iterations", nil).Snapshot()
	if h.Count != 1 || h.Sum != float64(eq.Iterations) {
		t.Errorf("solver.iterations histogram = %+v, want one observation of %d", h, eq.Iterations)
	}
	if g := cfg.Metrics.Gauge("solver.residual").Value(); g != eq.Residuals[len(eq.Residuals)-1] {
		t.Errorf("solver.residual gauge = %v, want final residual %v", g, eq.Residuals[len(eq.Residuals)-1])
	}

	// The span trace must hold one core.solve under the root carrying
	// the outcome, and under it one solver.iter per iteration whose
	// residuals match Equilibrium.Residuals and whose iterates chain:
	// each iteration starts from the previous one's damped update.
	type span struct {
		Event      string  `json:"event"`
		Name       string  `json:"name"`
		ID         string  `json:"id"`
		Parent     string  `json:"parent"`
		Iter       int     `json:"iter"`
		Residual   float64 `json:"residual"`
		Ptrip      float64 `json:"ptrip"`
		Next       float64 `json:"next"`
		Sprinters  float64 `json:"sprinters"`
		Iterations int     `json:"iterations"`
		Converged  bool    `json:"converged"`
	}
	var iters, solves []span
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if s.Event != "span" {
			t.Fatalf("non-span trace line %q", sc.Text())
		}
		switch s.Name {
		case "solver.iter":
			iters = append(iters, s)
		case "core.solve":
			solves = append(solves, s)
		}
	}
	if len(solves) != 1 {
		t.Fatalf("%d core.solve spans, want 1", len(solves))
	}
	solve := solves[0]
	if solve.Parent != root.SpanID() {
		t.Errorf("core.solve parent = %q, want the cfg.Span root %q", solve.Parent, root.SpanID())
	}
	if solve.Iterations != eq.Iterations || !solve.Converged || solve.Ptrip != eq.Ptrip || solve.Sprinters != eq.Sprinters {
		t.Errorf("core.solve = %+v, want iterations %d ptrip %v sprinters %v converged", solve, eq.Iterations, eq.Ptrip, eq.Sprinters)
	}
	if len(iters) != eq.Iterations {
		t.Fatalf("%d solver.iter spans for %d iterations", len(iters), eq.Iterations)
	}
	prev := 1.0 // Algorithm 1 starts from Ptrip = 1
	for i, s := range iters {
		if s.Parent != solve.ID || s.Iter != i+1 || s.Residual != eq.Residuals[i] || s.Ptrip != prev {
			t.Errorf("iter %d = %+v, want parent %s iter %d residual %v ptrip %v", i, s, solve.ID, i+1, eq.Residuals[i], prev)
		}
		prev += cfg.Damping * (s.Next - prev)
	}
	if last := iters[len(iters)-1]; last.Ptrip != eq.Ptrip || last.Sprinters != eq.Sprinters {
		t.Errorf("last iter = %+v, want ptrip %v sprinters %v", last, eq.Ptrip, eq.Sprinters)
	}
}
