package core

import (
	"math"
	"testing"

	"sprintgame/internal/dist"
	"sprintgame/internal/workload"
)

func density(t *testing.T, name string) *dist.Discrete {
	t.Helper()
	b, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.DiscreteDensity(250)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFindEquilibriumValidation(t *testing.T) {
	cfg := testConfig()
	if _, err := FindEquilibrium(nil, cfg); err == nil {
		t.Error("no classes should error")
	}
	f := bimodalDensity()
	if _, err := FindEquilibrium([]AgentClass{{Name: "a", Count: 0, Density: f}}, cfg); err == nil {
		t.Error("zero-count class should error")
	}
	if _, err := FindEquilibrium([]AgentClass{{Name: "a", Count: 500, Density: f}}, cfg); err == nil {
		t.Error("counts not summing to N should error")
	}
	if _, err := FindEquilibrium([]AgentClass{{Name: "a", Count: 1000, Density: nil}}, cfg); err == nil {
		t.Error("nil density should error")
	}
	bad := cfg
	bad.N = 0
	if _, err := FindEquilibrium([]AgentClass{{Name: "a", Count: 1000, Density: f}}, bad); err == nil {
		t.Error("invalid config should error")
	}
}

func TestEquilibriumConsistency(t *testing.T) {
	// The defining property (§4.4): (a) the threshold is optimal given
	// Ptrip; (b) Ptrip follows from the threshold via Eqs. (9)-(11).
	cfg := testConfig()
	f := density(t, "decision")
	eq, err := SingleClass("decision", f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !eq.Converged {
		t.Fatal("equilibrium did not converge")
	}
	o := eq.Classes[0]
	// (a) best response.
	dev, err := eq.VerifyNoBeneficialDeviation(
		[]AgentClass{{Name: "decision", Count: cfg.N, Density: f}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dev > 1e-3 {
		t.Errorf("threshold deviates from best response by %v", dev)
	}
	// (b) consistency of the sprint distribution.
	nS := expectedSprinters(f, o.Threshold, cfg.Pc, cfg.N)
	if !almost(nS, eq.Sprinters, 1e-6) {
		t.Errorf("nS mismatch: %v vs %v", nS, eq.Sprinters)
	}
	if !almost(cfg.Trip.Ptrip(nS), eq.Ptrip, 5e-3) {
		t.Errorf("Ptrip inconsistent: model %v vs equilibrium %v",
			cfg.Trip.Ptrip(nS), eq.Ptrip)
	}
}

func TestEquilibriumSprintersJustAboveNmin(t *testing.T) {
	// §6.1: for Decision Tree the number of sprinters in equilibrium is
	// just slightly above Nmin = 250.
	eq, err := SingleClass("decision", density(t, "decision"), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if eq.Sprinters < 250 || eq.Sprinters > 320 {
		t.Errorf("equilibrium sprinters = %v, want slightly above Nmin=250", eq.Sprinters)
	}
	if eq.Ptrip <= 0 || eq.Ptrip > 0.2 {
		t.Errorf("equilibrium Ptrip = %v, want small but positive", eq.Ptrip)
	}
}

func TestOutliersProduceGreedyEquilibrium(t *testing.T) {
	// §6.2: Linear Regression and Correlation have narrow profiles; all
	// epochs benefit alike, so agents set thresholds below their entire
	// support and sprint at every opportunity.
	for _, name := range []string{"linear", "correlation"} {
		f := density(t, name)
		eq, err := SingleClass(name, f, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		o := eq.Classes[0]
		if o.SprintProb < 0.99 {
			t.Errorf("%s: sprint probability %v, want ~1 (greedy equilibrium)", name, o.SprintProb)
		}
		lo, _ := f.Support()
		if o.Threshold >= lo {
			t.Errorf("%s: threshold %v not below support min %v", name, o.Threshold, lo)
		}
	}
}

func TestJudiciousApplications(t *testing.T) {
	// Figure 11: most applications sprint judiciously. PageRank's high
	// threshold cuts its bimodal density at the valley.
	eq, err := SingleClass("pagerank", density(t, "pagerank"), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	o := eq.Classes[0]
	if o.Threshold < 4 || o.Threshold > 8.5 {
		t.Errorf("pagerank threshold = %v, want in the density valley", o.Threshold)
	}
	if o.SprintProb < 0.25 || o.SprintProb > 0.55 {
		t.Errorf("pagerank sprint probability = %v, want judicious", o.SprintProb)
	}
	if share := o.SprintTimeShare(); share < 0.1 || share > 0.4 {
		t.Errorf("pagerank sprint time share = %v", share)
	}
}

func TestAllCatalogEquilibriaConverge(t *testing.T) {
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
			t.Errorf("%s: Algorithm 1 did not converge", b.Name)
		}
		if eq.Ptrip < 0 || eq.Ptrip > 1 {
			t.Errorf("%s: Ptrip = %v", b.Name, eq.Ptrip)
		}
		o := eq.Classes[0]
		if o.SprintProb < 0 || o.SprintProb > 1 || o.ActiveFrac < 0 || o.ActiveFrac > 1 {
			t.Errorf("%s: invalid probabilities %+v", b.Name, o)
		}
	}
}

func TestHeterogeneousEquilibrium(t *testing.T) {
	// Mixed racks (§6.2): each class gets its own tailored threshold; the
	// shared Ptrip couples them.
	cfg := testConfig()
	classes := []AgentClass{
		{Name: "decision", Count: 500, Density: density(t, "decision")},
		{Name: "pagerank", Count: 500, Density: density(t, "pagerank")},
	}
	eq, err := FindEquilibrium(classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !eq.Converged {
		t.Fatal("heterogeneous equilibrium did not converge")
	}
	dOut, err := eq.Outcome("decision")
	if err != nil {
		t.Fatal(err)
	}
	pOut, err := eq.Outcome("pagerank")
	if err != nil {
		t.Fatal(err)
	}
	if almost(dOut.Threshold, pOut.Threshold, 1e-6) {
		t.Error("different classes should receive different thresholds")
	}
	total := dOut.ExpectedSprinters + pOut.ExpectedSprinters
	if !almost(total, eq.Sprinters, 1e-9) {
		t.Errorf("class sprinters %v do not sum to total %v", total, eq.Sprinters)
	}
	if _, err := eq.Outcome("nosuch"); err == nil {
		t.Error("unknown class lookup should error")
	}
	// Best-response check across both classes.
	dev, err := eq.VerifyNoBeneficialDeviation(classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dev > 1e-3 {
		t.Errorf("deviation %v", dev)
	}
}

func TestEquilibriumHigherTripBoundsRaiseThresholds(t *testing.T) {
	// §6.5: when Nmin/Nmax are large, sprinting now risks little, so...
	// actually the paper finds the opposite: small Nmin/Nmax make
	// emergencies likely and agents sprint aggressively (low thresholds);
	// large bounds support judicious sprinting (higher thresholds).
	f := density(t, "decision")
	small := testConfig()
	small.Trip = tripModel(50, 150)
	large := testConfig()
	large.Trip = tripModel(600, 900)
	eqSmall, err := SingleClass("d", f, small)
	if err != nil {
		t.Fatal(err)
	}
	eqLarge, err := SingleClass("d", f, large)
	if err != nil {
		t.Fatal(err)
	}
	if eqSmall.Classes[0].Threshold > eqLarge.Classes[0].Threshold {
		t.Errorf("small bounds threshold %v should not exceed large bounds threshold %v",
			eqSmall.Classes[0].Threshold, eqLarge.Classes[0].Threshold)
	}
}

func TestEquilibriumUnconvergedReported(t *testing.T) {
	cfg := testConfig()
	cfg.MaxFixedPointIter = 1
	eq, err := SingleClass("decision", density(t, "decision"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eq.Converged {
		t.Error("one iteration from P=1 should not report convergence")
	}
	if eq.Iterations != 1 {
		t.Errorf("iterations = %d", eq.Iterations)
	}
}

func TestSprintTimeShare(t *testing.T) {
	o := ClassOutcome{SprintProb: 0.5, ActiveFrac: 0.5}
	if o.SprintTimeShare() != 0.25 {
		t.Errorf("share = %v", o.SprintTimeShare())
	}
}

func TestEquilibriumDeterministic(t *testing.T) {
	f := density(t, "kmeans")
	a, err := SingleClass("kmeans", f, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SingleClass("kmeans", f, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Ptrip != b.Ptrip || a.Classes[0].Threshold != b.Classes[0].Threshold {
		t.Error("Algorithm 1 is not deterministic")
	}
}

func TestEquilibriumThresholdFiniteness(t *testing.T) {
	for _, b := range workload.Catalog() {
		f, _ := b.DiscreteDensity(250)
		eq, err := SingleClass(b.Name, f, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		th := eq.Classes[0].Threshold
		if math.IsNaN(th) || math.IsInf(th, 0) || th < 0 {
			t.Errorf("%s: threshold %v", b.Name, th)
		}
	}
}
