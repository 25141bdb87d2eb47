package dist

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"sprintgame/internal/stats"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewDiscreteValidation(t *testing.T) {
	if _, err := NewDiscrete(nil, nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := NewDiscrete([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := NewDiscrete([]float64{1}, []float64{-1}); err == nil {
		t.Error("negative weight should error")
	}
	if _, err := NewDiscrete([]float64{1, 2}, []float64{0, 0}); err == nil {
		t.Error("zero weights should error")
	}
	if _, err := NewDiscrete([]float64{math.NaN()}, []float64{1}); err == nil {
		t.Error("NaN value should error")
	}
	if _, err := NewDiscrete([]float64{1}, []float64{math.Inf(1)}); err == nil {
		t.Error("Inf weight should error")
	}
}

func TestDiscreteNormalizationAndMerge(t *testing.T) {
	d := MustDiscrete([]float64{2, 1, 2}, []float64{1, 1, 2})
	if d.Len() != 2 {
		t.Fatalf("duplicates not merged: len=%d", d.Len())
	}
	x0, p0 := d.Atom(0)
	x1, p1 := d.Atom(1)
	if x0 != 1 || x1 != 2 {
		t.Fatalf("atoms not sorted: %v %v", x0, x1)
	}
	if !almost(p0, 0.25, 1e-12) || !almost(p1, 0.75, 1e-12) {
		t.Fatalf("probabilities %v %v", p0, p1)
	}
}

func TestDiscreteMoments(t *testing.T) {
	d := MustDiscrete([]float64{0, 10}, []float64{1, 1})
	if !almost(d.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v", d.Mean())
	}
}

func TestDiscreteTailProb(t *testing.T) {
	d := MustDiscrete([]float64{1, 2, 3, 4}, []float64{1, 1, 1, 1})
	cases := []struct{ th, want float64 }{
		{0, 1}, {1, 0.75}, {2.5, 0.5}, {4, 0}, {5, 0},
	}
	for _, c := range cases {
		if got := d.TailProb(c.th); !almost(got, c.want, 1e-12) {
			t.Errorf("TailProb(%v) = %v, want %v", c.th, got, c.want)
		}
	}
}

func TestDiscreteTailMean(t *testing.T) {
	d := MustDiscrete([]float64{1, 3}, []float64{1, 1})
	if got := d.TailMean(2); !almost(got, 1.5, 1e-12) {
		t.Errorf("TailMean(2) = %v, want 1.5", got)
	}
	if got := d.TailMean(0); !almost(got, 2, 1e-12) {
		t.Errorf("TailMean(0) = %v, want mean 2", got)
	}
}

func TestDiscreteCDFQuantileInverse(t *testing.T) {
	d := MustDiscrete([]float64{1, 2, 3}, []float64{0.2, 0.3, 0.5})
	if !almost(d.CDF(2), 0.5, 1e-12) {
		t.Errorf("CDF(2) = %v", d.CDF(2))
	}
	if q := QuantileOf(d, 0.5); q != 2 {
		t.Errorf("QuantileOf(0.5) = %v", q)
	}
	if QuantileOf(d, 0) != 1 || QuantileOf(d, 1) != 3 {
		t.Error("extreme quantiles wrong")
	}
}

func TestDiscreteSampleFrequencies(t *testing.T) {
	d := MustDiscrete([]float64{1, 2}, []float64{3, 1})
	r := stats.NewRNG(5)
	count1 := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if d.Sample(r) == 1 {
			count1++
		}
	}
	if f := float64(count1) / n; !almost(f, 0.75, 0.01) {
		t.Errorf("P(1) sampled = %v, want 0.75", f)
	}
}

func TestDiscreteScaleShift(t *testing.T) {
	d := MustDiscrete([]float64{1, 2}, []float64{1, 1})
	s := d.Scale(3)
	if lo, hi := s.Support(); lo != 3 || hi != 6 {
		t.Errorf("scaled support [%v, %v]", lo, hi)
	}
	// Original untouched.
	if lo, _ := d.Support(); lo != 1 {
		t.Error("Scale mutated receiver")
	}
}

func TestDiscreteScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Scale(0) did not panic")
		}
	}()
	MustDiscrete([]float64{1}, []float64{1}).Scale(0)
}

func TestFromSamples(t *testing.T) {
	r := stats.NewRNG(7)
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = r.Range(0, 10)
	}
	d, err := FromSamples(samples, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(d.Mean(), 5, 0.1) {
		t.Errorf("uniform sample mean via histogram = %v", d.Mean())
	}
	if _, err := FromSamples(nil, 10); err == nil {
		t.Error("empty samples should error")
	}
	if _, err := FromSamples([]float64{1}, 0); err == nil {
		t.Error("zero bins should error")
	}
}

// TestFromSamplesConstant: equal samples give the exact one-atom
// density, at any magnitude. A histogram over [v, v+1e-12) would shift
// a small atom, and its range is empty once 1e-12 is below half an ulp
// of v (1e5 here).
func TestFromSamplesConstant(t *testing.T) {
	for _, v := range []float64{1.5, 1e4, 1e5} {
		d, err := FromSamples([]float64{v, v, v}, 20)
		if err != nil {
			t.Errorf("FromSamples(%v x3): %v", v, err)
			continue
		}
		if d.Len() != 1 {
			t.Errorf("FromSamples(%v x3) has %d atoms, want 1", v, d.Len())
			continue
		}
		if x, p := d.Atom(0); x != v || p != 1 {
			t.Errorf("FromSamples(%v x3) atom = (%v, %v), want (%v, 1)", v, x, p, v)
		}
	}
}

func TestDiscretizeUniform(t *testing.T) {
	d, err := Discretize(Uniform{Lo: 0, Hi: 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 10 {
		t.Fatalf("len = %d", d.Len())
	}
	for i := 0; i < d.Len(); i++ {
		if _, p := d.Atom(i); !almost(p, 0.1, 1e-9) {
			t.Errorf("atom %d prob %v", i, p)
		}
	}
	if !almost(d.Mean(), 0.5, 1e-9) {
		t.Errorf("mean = %v", d.Mean())
	}
}

func TestDiscretizeNormalMatchesMoments(t *testing.T) {
	n := Normal{Mu: 4, Sigma: 1.5}
	d, err := Discretize(n, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(d.Mean(), 4, 0.01) {
		t.Errorf("mean = %v", d.Mean())
	}
	variance := 0.0
	for i := 0; i < d.Len(); i++ {
		x, p := d.Atom(i)
		variance += (x - d.Mean()) * (x - d.Mean()) * p
	}
	if !almost(variance, 2.25, 0.05) {
		t.Errorf("variance = %v", variance)
	}
	// Probabilities sum to 1.
	total := 0.0
	for _, p := range d.Probs() {
		total += p
	}
	if !almost(total, 1, 1e-9) {
		t.Errorf("total prob = %v", total)
	}
}

func TestDiscretizeErrors(t *testing.T) {
	if _, err := Discretize(Uniform{Lo: 0, Hi: 1}, 0); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := Discretize(Uniform{Lo: 1, Hi: 1}, 4); err == nil {
		t.Error("degenerate support should error")
	}
}

// Property: for any discrete distribution, TailProb is non-increasing in
// the threshold and consistent with CDF: TailProb(x) ~= 1 - CDF(x) at
// non-atom points.
func TestTailProbProperty(t *testing.T) {
	f := func(seed uint32) bool {
		r := stats.NewRNG(uint64(seed))
		n := r.Intn(20) + 1
		vals := make([]float64, n)
		ws := make([]float64, n)
		for i := range vals {
			vals[i] = r.Range(0, 100)
			ws[i] = r.Float64() + 0.01
		}
		d, err := NewDiscrete(vals, ws)
		if err != nil {
			return false
		}
		prev := 1.0
		for x := -1.0; x < 101; x += 3.7 {
			tp := d.TailProb(x)
			if tp > prev+1e-12 || tp < -1e-12 || tp > 1+1e-12 {
				return false
			}
			if !almost(tp, 1-d.CDF(x), 1e-9) {
				return false
			}
			prev = tp
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDiscretizeQuantileHeavyTail(t *testing.T) {
	// Equal-probability atoms represent a Pareto faithfully where
	// equal-width bins collapse it into one bucket.
	p := Pareto{Xm: 1.5, Alpha: 1.8}
	d, err := DiscretizeQuantile(p, 400)
	if err != nil {
		t.Fatal(err)
	}
	// The median of the atoms matches the distribution's median.
	wantMedian := QuantileOf(p, 0.5)
	if got := QuantileOf(d, 0.5); math.Abs(got-wantMedian) > 0.05*wantMedian {
		t.Errorf("median %v, want %v", got, wantMedian)
	}
	// Tail probabilities track the analytic tail.
	for _, x := range []float64{2, 4, 8, 16} {
		want := 1 - p.CDF(x)
		if got := d.TailProb(x); math.Abs(got-want) > 0.02 {
			t.Errorf("tail at %v: %v vs %v", x, got, want)
		}
	}
	if _, err := DiscretizeQuantile(p, 0); err == nil {
		t.Error("n=0 should error")
	}
}

func TestDiscretizeQuantileMatchesUniform(t *testing.T) {
	d, err := DiscretizeQuantile(Uniform{Lo: 0, Hi: 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 10 {
		t.Fatalf("len = %d", d.Len())
	}
	if math.Abs(d.Mean()-0.5) > 1e-9 {
		t.Errorf("mean = %v", d.Mean())
	}
}

// sortSliceDiscrete is NewDiscrete's atom sort and merge as it was with
// sort.Slice, kept as the reference for TestNewDiscreteSortParity.
func sortSliceDiscrete(values, weights []float64) (xs, ps []float64) {
	type atom struct{ x, p float64 }
	atoms := make([]atom, len(values))
	total := 0.0
	for i, v := range values {
		total += weights[i]
		atoms[i] = atom{v, weights[i]}
	}
	sort.Slice(atoms, func(i, j int) bool { return atoms[i].x < atoms[j].x })
	for _, a := range atoms {
		p := a.p / total
		if p == 0 {
			continue
		}
		if n := len(xs); n > 0 && xs[n-1] == a.x {
			ps[n-1] += p
		} else {
			xs = append(xs, a.x)
			ps = append(ps, p)
		}
	}
	return xs, ps
}

// TestNewDiscreteSortParity: NewDiscrete's sort must put equal values in
// the same order sort.Slice did, because duplicates merge by summing
// their probabilities in that order and the coordinator's answers are
// compared bit for bit. A stable sort, say, orders duplicates
// differently and fails here. Inputs draw 1 to 3000 values from a set of
// 3 to 7, so nearly every atom has duplicates with distinct weights.
func TestNewDiscreteSortParity(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		r := stats.NewRNG(seed)
		set := make([]float64, 3+r.Intn(5))
		for i := range set {
			set[i] = r.Range(-5, 20)
		}
		n := 1 + r.Intn(3000)
		values := make([]float64, n)
		weights := make([]float64, n)
		for i := range values {
			values[i] = set[r.Intn(len(set))]
			weights[i] = r.Float64()
		}
		d, err := NewDiscrete(values, weights)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		xs, ps := sortSliceDiscrete(values, weights)
		if d.Len() != len(xs) {
			t.Fatalf("seed %d: %d atoms, sort.Slice reference has %d", seed, d.Len(), len(xs))
		}
		for i := range xs {
			x, p := d.Atom(i)
			if math.Float64bits(x) != math.Float64bits(xs[i]) || math.Float64bits(p) != math.Float64bits(ps[i]) {
				t.Fatalf("seed %d (n=%d): atom %d = (%v, %v), sort.Slice reference (%v, %v)",
					seed, n, i, x, p, xs[i], ps[i])
			}
		}
	}
}
