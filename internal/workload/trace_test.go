package workload

import (
	"math"
	"sort"
	"testing"

	"sprintgame/internal/dist"
	"sprintgame/internal/stats"
)

func TestTraceGeneratorDeterministic(t *testing.T) {
	b, _ := ByName("decision")
	g1, err := NewTraceGenerator(b, 42)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewTraceGenerator(b, 42)
	for i := 0; i < 200; i++ {
		if g1.Next() != g2.Next() {
			t.Fatalf("same seed diverged at epoch %d", i)
		}
	}
}

func TestTraceGeneratorSeedsDiffer(t *testing.T) {
	b, _ := ByName("decision")
	g1, _ := NewTraceGenerator(b, 1)
	g2, _ := NewTraceGenerator(b, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if g1.Next() == g2.Next() {
			same++
		}
	}
	if same > 10 {
		t.Errorf("different seeds matched %d/100 epochs", same)
	}
}

func TestTraceUtilitiesWithinSupport(t *testing.T) {
	for _, b := range Catalog() {
		g, err := NewTraceGenerator(b, 7)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		lo, hi := b.Density().Support()
		for i := 0; i < 2000; i++ {
			u := g.Next()
			if u < lo-1e-9 || u > hi+1e-9 {
				t.Fatalf("%s: utility %v outside density support [%v, %v]", b.Name, u, lo, hi)
			}
		}
	}
}

func TestTraceMeanMatchesDensity(t *testing.T) {
	// Long-run trace mean should approximate the stationary density mean.
	for _, name := range []string{"linear", "pagerank", "kmeans"} {
		b, _ := ByName(name)
		g, _ := NewTraceGenerator(b, 99)
		acc := stats.Accumulator{}
		for i := 0; i < 60000; i++ {
			acc.Add(g.Next())
		}
		want := b.MeanSpeedup()
		if math.Abs(acc.Mean()-want) > 0.25*want {
			t.Errorf("%s: trace mean %v vs density mean %v", name, acc.Mean(), want)
		}
	}
}

func TestTraceTemporalCorrelation(t *testing.T) {
	// Phases imply positive autocorrelation at lag 1 for multi-phase
	// benchmarks: adjacent epochs mostly share a phase.
	b, _ := ByName("pagerank")
	g, _ := NewTraceGenerator(b, 11)
	n := 20000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = g.Next()
	}
	mean := stats.Mean(xs)
	num, den := 0.0, 0.0
	for i := 0; i < n-1; i++ {
		num += (xs[i] - mean) * (xs[i+1] - mean)
	}
	for i := 0; i < n; i++ {
		den += (xs[i] - mean) * (xs[i] - mean)
	}
	rho := num / den
	if rho < 0.3 {
		t.Errorf("lag-1 autocorrelation %v, want strong phase persistence", rho)
	}
}

// ksDistance sorts xs and returns its Kolmogorov-Smirnov distance to
// cdf.
func ksDistance(xs []float64, cdf func(float64) float64) float64 {
	sort.Float64s(xs)
	n := float64(len(xs))
	d := 0.0
	for i, x := range xs {
		f := cdf(x)
		d = math.Max(d, math.Max(float64(i+1)/n-f, f-float64(i)/n))
	}
	return d
}

// TestTraceGeneratorMarginal checks that the utilities a reader draws
// follow Benchmark.Density even when it skips epochs: 1000 generators
// per benchmark each give 1000 reads, with 40% of epochs skipped at
// seeded random. Single-phase benchmarks draw i.i.d., so they must pass
// the 1% KS critical value 1.63/√n; phase persistence correlates the
// multi-phase draws, which inflates D, so those get a bound of 0.01.
func TestTraceGeneratorMarginal(t *testing.T) {
	const gens, reads = 1000, 1000
	crit := 1.63 / math.Sqrt(gens*reads)
	xs := make([]float64, 0, gens*reads)
	for _, b := range Catalog() {
		skips := stats.NewRNG(5)
		xs = xs[:0]
		for k := 0; k < gens; k++ {
			g, err := NewTraceGenerator(b, uint64(k)+1)
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n < reads; {
				if skips.Bool(0.4) {
					g.Skip()
					continue
				}
				xs = append(xs, g.Next())
				n++
			}
		}
		d := ksDistance(xs, b.Density().CDF)
		bound := 0.01
		if len(b.Phases) == 1 {
			bound = crit
		}
		t.Logf("%s: D = %.5f (bound %.5f)", b.Name, d, bound)
		if d >= bound {
			t.Errorf("%s: KS D = %v against Density, want < %v", b.Name, d, bound)
		}
	}
}

// TestTraceGeneratorPhaseOccupancy checks the phase clock: the share of
// epochs spent in each phase matches Phase.Weight whether the reader
// only skips or mixes skips with reads (a read draws from the same RNG
// as the phase jumps, so it must not bias which phase comes next).
func TestTraceGeneratorPhaseOccupancy(t *testing.T) {
	const gens, epochs = 1000, 2000
	for _, b := range Catalog() {
		for _, readShare := range []float64{0, 0.6} {
			reads := stats.NewRNG(9)
			occ := make([]float64, len(b.Phases))
			for k := 0; k < gens; k++ {
				g, err := NewTraceGenerator(b, uint64(k)+1)
				if err != nil {
					t.Fatal(err)
				}
				for e := 0; e < epochs; e++ {
					if reads.Bool(readShare) {
						g.Next()
					} else {
						g.Skip()
					}
					occ[g.phase]++
				}
			}
			for i, ph := range b.Phases {
				share := occ[i] / (gens * epochs)
				if math.Abs(share-ph.Weight) > 0.01 {
					t.Errorf("%s, read share %v: phase %q occupies %.4f of epochs, want weight %v",
						b.Name, readShare, ph.Label, share, ph.Weight)
				}
			}
		}
	}
}

func TestGenerate(t *testing.T) {
	b, _ := ByName("svm")
	g, _ := NewTraceGenerator(b, 3)
	tr, err := g.Generate(500)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 500 || len(tr.BaseTPS) != 500 {
		t.Fatalf("trace length %d", tr.Len())
	}
	if tr.Benchmark != "svm" {
		t.Errorf("benchmark label %q", tr.Benchmark)
	}
	for i, tps := range tr.BaseTPS {
		if tps <= 0 {
			t.Fatalf("non-positive BaseTPS at %d", i)
		}
	}
	if _, err := g.Generate(0); err == nil {
		t.Error("zero-length trace should error")
	}
}

func TestEmpiricalDensityApproximatesModel(t *testing.T) {
	// Offline profiling as the paper's agents do it: sample epochs,
	// measure utility, report a binned density.
	b, _ := ByName("linear")
	g, _ := NewTraceGenerator(b, 5)
	emp, err := dist.FromSamples(g.SampleDensity(40000), 60)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(emp.Mean()-b.MeanSpeedup()) > 0.3 {
		t.Errorf("empirical mean %v vs model %v", emp.Mean(), b.MeanSpeedup())
	}
	// Tail probabilities should agree with the analytic density.
	model, _ := b.DiscreteDensity(400)
	for _, th := range []float64{3.5, 4, 4.5} {
		if diff := math.Abs(emp.TailProb(th) - model.TailProb(th)); diff > 0.1 {
			t.Errorf("tail prob at %v differs by %v", th, diff)
		}
	}
}

func TestEmpiricalDensityBimodalForPageRank(t *testing.T) {
	b, _ := ByName("pagerank")
	g, _ := NewTraceGenerator(b, 13)
	samples := g.SampleDensity(30000)
	kde, err := dist.NewKDE(samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	valley := kde.PDF(6)
	if kde.PDF(2.2) <= valley || kde.PDF(11.5) <= valley {
		t.Error("profiled PageRank density lost its bimodality")
	}
}

func TestNewTraceGeneratorRejectsInvalid(t *testing.T) {
	b := &Benchmark{Name: "bad"}
	if _, err := NewTraceGenerator(b, 1); err == nil {
		t.Error("invalid benchmark should be rejected")
	}
}

func TestTraceAt(t *testing.T) {
	tr := &Trace{
		Benchmark: "x",
		Utilities: []float64{1, 2, 3},
		BaseTPS:   []float64{10, 20},
	}
	for _, tc := range []struct {
		epoch   int
		u, base float64
	}{
		{0, 1, 10}, {1, 2, 20}, {2, 3, 0}, {3, 1, 10}, {7, 2, 20}, {-1, 3, 0},
	} {
		u, base := tr.At(tc.epoch)
		if u != tc.u || base != tc.base {
			t.Errorf("At(%d) = (%g, %g), want (%g, %g)", tc.epoch, u, base, tc.u, tc.base)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("At on empty trace should panic")
		}
	}()
	(&Trace{}).At(0)
}

func BenchmarkTraceGeneratorNext(b *testing.B) {
	bench, _ := ByName("decision")
	g, err := NewTraceGenerator(bench, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += g.Next()
	}
	benchSink = s
}

var benchSink float64
