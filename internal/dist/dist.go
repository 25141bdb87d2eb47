// Package dist provides the probability machinery behind the sprinting
// game: continuous densities, histograms, kernel density estimation, and
// a discretized density representation suitable for solving the game's
// Bellman equations.
//
// In the paper, each application's utility from sprinting is characterized
// by a probability density f(u) obtained by profiling (§4.2, Figure 10).
// The game consumes that density through the Discrete type: a finite set
// of (utility, probability) atoms.
package dist

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"sprintgame/internal/stats"
)

// Distribution is a real-valued random variable that can be sampled and
// whose cumulative distribution can be queried.
type Distribution interface {
	// Mean returns the expected value.
	Mean() float64
	// Support returns an interval [lo, hi] outside of which the
	// distribution has (numerically) negligible mass.
	Support() (lo, hi float64)
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Sample draws one variate using r.
	Sample(r *stats.RNG) float64
}

// Density is a Distribution with a probability density function.
type Density interface {
	Distribution
	// PDF returns the density at x.
	PDF(x float64) float64
}

// Discrete is a finite probability mass function over utility values,
// sorted by value. It is the representation consumed by the game's dynamic
// program: Eq. (4) becomes a weighted sum, and Eq. (9)'s tail integral a
// partial sum.
type Discrete struct {
	xs []float64 // support, ascending
	ps []float64 // probabilities, same length, sum to 1

	// Prefix sums over the atoms, built lazily on first use and then
	// shared by every reader. cumP[i] and cumPX[i] are the sums of
	// ps[:i] and ps[j]*xs[j] for j < i (length Len()+1), so any
	// "probability below / mass above a crossover" query is two array
	// reads after a binary search instead of an O(n) scan. The solver's
	// Bellman kernel evaluates Eq. (4) through these.
	prefixOnce sync.Once
	cumP       []float64
	cumPX      []float64
}

// NewDiscrete constructs a Discrete PMF from values and weights. Weights
// must be non-negative with a positive sum; they are normalized. Values
// need not be sorted or unique; duplicate values are merged.
//
// The atoms are sorted with slices.SortFunc rather than sort.Slice,
// which swaps through a reflection-based swapper. Both run the same
// generated pdqsort, and the comparator returns -1 exactly when
// sort.Slice's less (a.x < b.x) would report true, so the permutation
// is identical. Duplicate values merge in that order, and the merged
// floating-point sums depend on it (TestNewDiscreteSortParity).
func NewDiscrete(values, weights []float64) (*Discrete, error) {
	if len(values) == 0 {
		return nil, errors.New("dist: empty discrete distribution")
	}
	if len(values) != len(weights) {
		return nil, fmt.Errorf("dist: %d values but %d weights", len(values), len(weights))
	}
	type atom struct{ x, p float64 }
	atoms := make([]atom, 0, len(values))
	total := 0.0
	for i, v := range values {
		w := weights[i]
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("dist: invalid weight %v", w)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("dist: invalid value %v", v)
		}
		total += w
		atoms = append(atoms, atom{v, w})
	}
	if total <= 0 {
		return nil, errors.New("dist: weights sum to zero")
	}
	slices.SortFunc(atoms, func(a, b atom) int {
		if a.x < b.x {
			return -1
		}
		if a.x > b.x {
			return 1
		}
		return 0
	})
	d := &Discrete{}
	for _, a := range atoms {
		p := a.p / total
		if p == 0 {
			continue
		}
		if n := len(d.xs); n > 0 && d.xs[n-1] == a.x {
			d.ps[n-1] += p
		} else {
			d.xs = append(d.xs, a.x)
			d.ps = append(d.ps, p)
		}
	}
	if len(d.xs) == 0 {
		return nil, errors.New("dist: all weights zero")
	}
	return d, nil
}

// MustDiscrete is NewDiscrete that panics on error; for package-level
// tables and tests.
func MustDiscrete(values, weights []float64) *Discrete {
	d, err := NewDiscrete(values, weights)
	if err != nil {
		panic(err)
	}
	return d
}

// Len returns the number of atoms.
func (d *Discrete) Len() int { return len(d.xs) }

// Atom returns the i-th (value, probability) pair, in ascending value
// order.
func (d *Discrete) Atom(i int) (x, p float64) { return d.xs[i], d.ps[i] }

// Values returns a copy of the support.
func (d *Discrete) Values() []float64 {
	out := make([]float64, len(d.xs))
	copy(out, d.xs)
	return out
}

// Probs returns a copy of the probabilities.
func (d *Discrete) Probs() []float64 {
	out := make([]float64, len(d.ps))
	copy(out, d.ps)
	return out
}

// prefixes returns the lazily-built cumulative sums (cumP, cumPX), each
// of length Len()+1: cumP[i] = sum of ps[:i], cumPX[i] = sum of
// ps[j]*xs[j] for j < i. Built exactly once per density under
// prefixOnce; afterwards the slices are immutable, so concurrent readers
// need no further synchronization.
func (d *Discrete) prefixes() (cumP, cumPX []float64) {
	d.prefixOnce.Do(func() {
		n := len(d.xs)
		cp := make([]float64, n+1)
		cpx := make([]float64, n+1)
		for i := 0; i < n; i++ {
			cp[i+1] = cp[i] + d.ps[i]
			cpx[i+1] = cpx[i] + d.ps[i]*d.xs[i]
		}
		d.cumP = cp
		d.cumPX = cpx
	})
	return d.cumP, d.cumPX
}

// KernelView exposes the density's solver state in one call: the sorted
// support, the atom probabilities, and both cached prefix-sum columns
// (cumP, cumPX, each of length Len()+1). The exact Bellman solve binary-
// searches the support while reading both columns, so it fetches them
// once instead of through a method call per probe. All four slices are
// the density's own backing arrays — callers MUST NOT modify them. Safe
// for concurrent use.
func (d *Discrete) KernelView() (values, probs, cumP, cumPX []float64) {
	cp, cpx := d.prefixes()
	return d.xs, d.ps, cp, cpx
}

// searchAbove returns the smallest index i with xs[i] > x, or Len().
func (d *Discrete) searchAbove(x float64) int {
	return sort.Search(len(d.xs), func(i int) bool { return d.xs[i] > x })
}

// Mean returns E[X].
func (d *Discrete) Mean() float64 {
	m := 0.0
	for i, x := range d.xs {
		m += x * d.ps[i]
	}
	return m
}

// Support returns the smallest and largest atoms.
func (d *Discrete) Support() (lo, hi float64) { return d.xs[0], d.xs[len(d.xs)-1] }

// CDF returns P(X <= x) in O(log n) via the cached prefix sums.
func (d *Discrete) CDF(x float64) float64 {
	cumP, _ := d.prefixes()
	return cumP[d.searchAbove(x)]
}

// TailProb returns P(X > threshold), the paper's Eq. (9): the probability
// an agent's utility exceeds her sprinting threshold, in O(log n). The
// result is clamped to [0, 1] to guard against accumulated rounding.
func (d *Discrete) TailProb(threshold float64) float64 {
	cumP, _ := d.prefixes()
	p := cumP[len(d.xs)] - cumP[d.searchAbove(threshold)]
	if p > 1 {
		return 1
	}
	if p < 0 {
		return 0
	}
	return p
}

// TailMean returns E[X · 1{X > threshold}], used when evaluating the
// throughput contribution of sprints above a threshold. O(log n).
func (d *Discrete) TailMean(threshold float64) float64 {
	_, cumPX := d.prefixes()
	return cumPX[len(d.xs)] - cumPX[d.searchAbove(threshold)]
}

// Sample draws an atom according to its probability.
func (d *Discrete) Sample(r *stats.RNG) float64 {
	u := r.Float64()
	c := 0.0
	for i, p := range d.ps {
		c += p
		if u < c {
			return d.xs[i]
		}
	}
	return d.xs[len(d.xs)-1]
}

// Scale returns a new Discrete with every value multiplied by k (k > 0
// preserves ordering; k must be positive).
func (d *Discrete) Scale(k float64) *Discrete {
	if k <= 0 {
		panic("dist: Scale requires positive factor")
	}
	xs := make([]float64, len(d.xs))
	for i, x := range d.xs {
		xs[i] = x * k
	}
	return &Discrete{xs: xs, ps: append([]float64(nil), d.ps...)}
}

// FromSamples builds a Discrete by histogramming samples into bins
// equal-width bins. Bin centers become atoms. bins must be >= 1. When
// every sample is equal the result is the exact one-atom density at
// that value.
func FromSamples(samples []float64, bins int) (*Discrete, error) {
	if len(samples) == 0 {
		return nil, errors.New("dist: no samples")
	}
	if bins < 1 {
		return nil, errors.New("dist: bins must be >= 1")
	}
	lo, hi := stats.Min(samples), stats.Max(samples)
	if lo == hi {
		return NewDiscrete([]float64{lo}, []float64{1})
	}
	h, err := NewHistogram(lo, hi+1e-12, bins)
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		h.Add(s)
	}
	return h.Discrete()
}

// Discretize converts a continuous density into a Discrete PMF with n
// atoms placed at the centers of n equal-width bins across the density's
// support. Each atom's mass is the CDF difference across its bin, so the
// result integrates exactly to one even for heavy-tailed densities.
func Discretize(d Distribution, n int) (*Discrete, error) {
	if n < 1 {
		return nil, errors.New("dist: n must be >= 1")
	}
	lo, hi := d.Support()
	if !(hi > lo) {
		return nil, fmt.Errorf("dist: degenerate support [%v, %v]", lo, hi)
	}
	width := (hi - lo) / float64(n)
	xs := make([]float64, n)
	ws := make([]float64, n)
	prev := d.CDF(lo)
	for i := 0; i < n; i++ {
		right := lo + float64(i+1)*width
		c := d.CDF(right)
		xs[i] = lo + (float64(i)+0.5)*width
		ws[i] = math.Max(c-prev, 0)
		prev = c
	}
	// Fold any mass outside [lo, hi] into the end bins.
	ws[0] += d.CDF(lo)
	ws[n-1] += math.Max(1-prev, 0)
	return NewDiscrete(xs, ws)
}

// DiscretizeQuantile converts a distribution into n equal-probability
// atoms placed at quantile midpoints. Unlike the equal-width Discretize,
// it represents heavy-tailed distributions faithfully: no single bin can
// swallow the bulk of the mass.
func DiscretizeQuantile(d Distribution, n int) (*Discrete, error) {
	if n < 1 {
		return nil, errors.New("dist: n must be >= 1")
	}
	xs := make([]float64, n)
	ws := make([]float64, n)
	for i := 0; i < n; i++ {
		q := (float64(i) + 0.5) / float64(n)
		xs[i] = QuantileOf(d, q)
		ws[i] = 1
	}
	return NewDiscrete(xs, ws)
}
