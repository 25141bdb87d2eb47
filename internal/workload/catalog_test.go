package workload

import (
	"math"
	"testing"

	"sprintgame/internal/dist"
)

func TestCatalogHasElevenBenchmarks(t *testing.T) {
	cat := Catalog()
	if len(cat) != 11 {
		t.Fatalf("catalog has %d benchmarks, Table 1 lists 11", len(cat))
	}
	want := []string{"naive", "decision", "gradient", "svm", "linear",
		"kmeans", "als", "correlation", "pagerank", "cc", "triangle"}
	for i, b := range cat {
		if b.Name != want[i] {
			t.Errorf("catalog[%d] = %q, want %q (paper order)", i, b.Name, want[i])
		}
	}
}

func TestCatalogValidates(t *testing.T) {
	for _, b := range Catalog() {
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

func TestCatalogTable1Metadata(t *testing.T) {
	b, err := ByName("pagerank")
	if err != nil {
		t.Fatal(err)
	}
	if b.FullName != "PageRank" || b.Category != "Graph Processing" ||
		b.Dataset != "wdc2012" || b.DataSizeGB != 5.3 {
		t.Errorf("pagerank metadata wrong: %+v", b)
	}
	b, _ = ByName("als")
	if b.Dataset != "movielens2015" {
		t.Errorf("als dataset = %q", b.Dataset)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nosuch"); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 11 || names[0] != "naive" || names[10] != "triangle" {
		t.Errorf("Names() = %v", names)
	}
}

func TestMeanSpeedupsInPaperBand(t *testing.T) {
	// Figure 1: average sprint speedups fall between roughly 2x and 7x.
	for _, b := range Catalog() {
		m := b.MeanSpeedup()
		if m < 2 || m > 7.5 {
			t.Errorf("%s mean speedup %v outside Figure 1 band [2, 7.5]", b.Name, m)
		}
	}
}

func TestPowerRatioMatchesFigure1(t *testing.T) {
	for _, b := range Catalog() {
		if math.Abs(b.PowerRatio-1.8) > 0.3 {
			t.Errorf("%s power ratio %v, Figure 1 reports ~1.8", b.Name, b.PowerRatio)
		}
	}
}

func TestOutlierDensitiesAreNarrow(t *testing.T) {
	// §6.2: Linear Regression and Correlation have low-variance profiles;
	// their densities should be much narrower than PageRank's.
	variance := func(name string) float64 {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := b.DiscreteDensity(400)
		if err != nil {
			t.Fatal(err)
		}
		v := 0.0
		for i := 0; i < d.Len(); i++ {
			x, p := d.Atom(i)
			v += (x - d.Mean()) * (x - d.Mean()) * p
		}
		return v
	}
	vl, vc, vp := variance("linear"), variance("correlation"), variance("pagerank")
	if vl > 1 || vc > 1 {
		t.Errorf("outlier variances too large: linear=%v correlation=%v", vl, vc)
	}
	if vp < 5*math.Max(vl, vc) {
		t.Errorf("pagerank variance %v should dwarf outliers (%v, %v)", vp, vl, vc)
	}
}

func TestLinearRegressionBand(t *testing.T) {
	// Figure 10: Linear Regression's gains lie between 3x and 5x.
	b, _ := ByName("linear")
	lo, hi := b.Density().Support()
	if lo < 2.9 || hi > 5.1 {
		t.Errorf("linear support [%v, %v], want within [3, 5]", lo, hi)
	}
}

func TestPageRankBimodalWithBigMode(t *testing.T) {
	// Figure 10: PageRank's density is bimodal and gains often exceed 10x.
	b, _ := ByName("pagerank")
	d := b.Density()
	_, hi := d.Support()
	if hi < 10 {
		t.Errorf("pagerank max gain %v, want > 10", hi)
	}
	// Check bimodality: density at the two phase centers exceeds the
	// valley between them.
	valley := d.PDF(6)
	if d.PDF(2.2) <= valley || d.PDF(11.5) <= valley {
		t.Error("pagerank density should be bimodal")
	}
	// A nontrivial share of epochs gains more than 10x.
	disc, err := b.DiscreteDensity(400)
	if err != nil {
		t.Fatal(err)
	}
	tail := disc.TailProb(10)
	if tail < 0.15 || tail > 0.6 {
		t.Errorf("P(gain > 10x) = %v, want a substantial minority", tail)
	}
}

func TestDensitiesAreProper(t *testing.T) {
	for _, b := range Catalog() {
		d := b.Density()
		lo, hi := d.Support()
		integral := dist.Simpson(d.PDF, lo, hi, 2000)
		if math.Abs(integral-1) > 0.02 {
			t.Errorf("%s density integrates to %v", b.Name, integral)
		}
		if lo < 0.5 {
			t.Errorf("%s allows utility below 0.5 (lo=%v)", b.Name, lo)
		}
	}
}

func TestDiscreteDensityMatchesContinuousMean(t *testing.T) {
	for _, b := range Catalog() {
		disc, err := b.DiscreteDensity(300)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if math.Abs(disc.Mean()-b.MeanSpeedup()) > 0.1 {
			t.Errorf("%s discrete mean %v vs continuous %v",
				b.Name, disc.Mean(), b.MeanSpeedup())
		}
	}
}

func TestValidateCatchesBrokenBenchmarks(t *testing.T) {
	good, _ := ByName("naive")
	cases := []func(*Benchmark){
		func(b *Benchmark) { b.Name = "" },
		func(b *Benchmark) { b.Phases = nil },
		func(b *Benchmark) { b.Phases[0].Weight = 0 },
		func(b *Benchmark) { b.Phases[0].MeanDwell = 0.5 },
		func(b *Benchmark) { b.Phases[0].Utility = nil },
		func(b *Benchmark) { b.PowerRatio = 1 },
		func(b *Benchmark) {
			b.Phases[0].Utility = dist.TruncNormal{Mu: 0, Sigma: 1, Lo: -2, Hi: 2}
		},
	}
	for i, mutate := range cases {
		b := *good
		b.Phases = append([]Phase(nil), good.Phases...)
		mutate(&b)
		if err := b.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}
