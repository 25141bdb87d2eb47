package dist

import (
	"math"
	"sort"
	"sync"
	"testing"
)

func prefixTestDist(t *testing.T) *Discrete {
	t.Helper()
	values := []float64{-2, 0.5, 1, 3, 3.5, 7, 11}
	weights := []float64{1, 3, 2, 5, 1, 4, 2}
	d, err := NewDiscrete(values, weights)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPrefixSumsInvariants checks the cumulative sums KernelView hands
// the Bellman kernel against direct accumulation: length Len()+1,
// leading zero, monotone probability column, and exact agreement with
// a left-to-right sum. The support and probabilities it returns are the
// density's atoms in ascending order.
func TestPrefixSumsInvariants(t *testing.T) {
	d := prefixTestDist(t)
	values, atomProbs, probs, weighted := d.KernelView()
	n := d.Len()
	if len(values) != n || len(atomProbs) != n {
		t.Fatalf("support/probability lengths %d/%d, want %d", len(values), len(atomProbs), n)
	}
	if len(probs) != n+1 || len(weighted) != n+1 {
		t.Fatalf("prefix lengths %d/%d, want %d", len(probs), len(weighted), n+1)
	}
	if probs[0] != 0 || weighted[0] != 0 {
		t.Fatalf("prefix sums must start at zero, got %v and %v", probs[0], weighted[0])
	}
	cp, cpx := 0.0, 0.0
	for i := 0; i < n; i++ {
		x, p := d.Atom(i)
		if values[i] != x || atomProbs[i] != p {
			t.Errorf("atom %d = (%v, %v), want (%v, %v)", i, values[i], atomProbs[i], x, p)
		}
		cp += p
		cpx += p * x
		if probs[i+1] != cp {
			t.Errorf("probs[%d] = %v, want %v", i+1, probs[i+1], cp)
		}
		if weighted[i+1] != cpx {
			t.Errorf("weighted[%d] = %v, want %v", i+1, weighted[i+1], cpx)
		}
		if probs[i+1] < probs[i] {
			t.Errorf("probs not monotone at %d", i+1)
		}
	}
	if math.Abs(probs[n]-1) > 1e-12 {
		t.Errorf("total probability %v, want 1", probs[n])
	}

	// The same slices must come back on every call (built once).
	_, _, p2, w2 := d.KernelView()
	if &p2[0] != &probs[0] || &w2[0] != &weighted[0] {
		t.Error("KernelView rebuilt its prefix sums on a second call")
	}
}

// TestSearchValue pins the crossover search the Bellman kernel depends
// on: KernelView's support is sorted, so a binary search over it finds
// the smallest index with value >= x, ties included, Len() past the end.
func TestSearchValue(t *testing.T) {
	d := prefixTestDist(t)
	values, _, _, _ := d.KernelView()
	cases := []struct {
		x    float64
		want int
	}{
		{-10, 0}, {-2, 0}, {-1.9, 1}, {3, 3}, {3.25, 4}, {11, 6}, {11.5, 7},
	}
	for _, c := range cases {
		if got := sort.SearchFloat64s(values, c.x); got != c.want {
			t.Errorf("search(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

// TestTailQueriesMatchScan compares the O(log n) CDF/TailProb/TailMean
// against direct scans over the atoms, on and off atom values.
func TestTailQueriesMatchScan(t *testing.T) {
	d := prefixTestDist(t)
	queries := []float64{-3, -2, -1, 0.5, 0.75, 1, 2.9, 3, 3.5, 6.9, 7, 10, 11, 12}
	for _, q := range queries {
		var cdf, tail, tailMean float64
		for i := 0; i < d.Len(); i++ {
			x, p := d.Atom(i)
			if x <= q {
				cdf += p
			} else {
				tail += p
				tailMean += x * p
			}
		}
		if got := d.CDF(q); math.Abs(got-cdf) > 1e-12 {
			t.Errorf("CDF(%v) = %v, want %v", q, got, cdf)
		}
		if got := d.TailProb(q); math.Abs(got-tail) > 1e-12 {
			t.Errorf("TailProb(%v) = %v, want %v", q, got, tail)
		}
		if got := d.TailMean(q); math.Abs(got-tailMean) > 1e-12 {
			t.Errorf("TailMean(%v) = %v, want %v", q, got, tailMean)
		}
	}
}

// TestQuantileMatchesScan checks that QuantileOf, the CDF inversion
// DiscretizeQuantile uses, lands on a discrete density's atoms where an
// accumulation scan does.
func TestQuantileMatchesScan(t *testing.T) {
	d := prefixTestDist(t)
	scan := func(q float64) float64 {
		if q <= 0 {
			x, _ := d.Atom(0)
			return x
		}
		c := 0.0
		for i := 0; i < d.Len(); i++ {
			x, p := d.Atom(i)
			c += p
			if c >= q-1e-15 {
				return x
			}
		}
		x, _ := d.Atom(d.Len() - 1)
		return x
	}
	for _, q := range []float64{-0.5, 0, 1e-9, 0.25, 0.5, 0.75, 0.999, 1, 1.5} {
		if got, want := QuantileOf(d, q), scan(q); math.Abs(got-want) > 1e-9 {
			t.Errorf("QuantileOf(%v) = %v, want %v", q, got, want)
		}
	}
}

// TestPrefixSumsConcurrent hammers the lazily-built prefix sums from
// many goroutines, through both the O(log n) queries and KernelView;
// under -race this proves the sync.Once publication is sound for
// concurrent readers (concurrent solves share catalog densities).
func TestPrefixSumsConcurrent(t *testing.T) {
	d := prefixTestDist(t)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := float64(g*i%13) - 3
				_ = d.TailProb(q)
				_ = d.CDF(q)
				_, _, probs, _ := d.KernelView()
				if probs[len(probs)-1] < 0.99 {
					t.Error("lost probability mass")
				}
			}
		}(g)
	}
	wg.Wait()
}
