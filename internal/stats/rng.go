// Package stats provides deterministic random number generation and
// descriptive statistics used throughout the sprinting-game simulator.
//
// All stochastic components in this repository draw from stats.RNG rather
// than math/rand so that every experiment is reproducible from a seed and
// so that independent simulation streams can be split without correlation.
package stats

import "math"

// RNG is a deterministic pseudo-random number generator based on
// SplitMix64 seeding and the xoshiro256** algorithm. The zero value is not
// valid; use NewRNG.
type RNG struct {
	s [4]uint64
}

// SplitMix64 returns the SplitMix64 output for state x: its bijective
// avalanche finalizer applied to x + γ, with γ = 0x9e3779b97f4a7c15.
// Adjacent inputs give decorrelated outputs, and x, x+γ, x+2γ, ... is one
// SplitMix64 stream. It seeds RNG and derives seeds and trace IDs.
func SplitMix64(x uint64) uint64 {
	z := x + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator deterministically seeded from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	for i := range r.s {
		r.s[i] = SplitMix64(seed + 0x9e3779b97f4a7c15*uint64(i))
	}
	// Avoid the pathological all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new generator whose stream is independent of r's
// continued use. It is used to give each simulated agent its own stream.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Ziggurat tables for Norm: Marsaglia and Tsang's 128-layer ziggurat
// for the unnormalized density f(x) = exp(-x²/2). zigR is the start of
// the tail and zigV the common area of every layer. Layer i covers
// |x| < zigW[i]·2³¹; a draw whose 31-bit magnitude is below zigK[i]
// lies inside the rectangle under the curve and is returned at once.
const (
	zigR = 3.442619855899
	zigV = 9.91256303526217e-3
)

var (
	zigK [128]uint32
	zigW [128]float64
	zigF [128]float64
)

func init() {
	const m = 1 << 31
	dn, tn := zigR, zigR
	q := zigV / math.Exp(-0.5*dn*dn)
	// zigK[1] stays 0: the top layer has no inner rectangle, so every
	// draw there takes the wedge test.
	zigK[0] = uint32(dn / q * m)
	zigW[0] = q / m
	zigW[127] = dn / m
	zigF[0] = 1
	zigF[127] = math.Exp(-0.5 * dn * dn)
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(zigV/dn+math.Exp(-0.5*dn*dn)))
		zigK[i+1] = uint32(dn / tn * m)
		tn = dn
		zigF[i] = math.Exp(-0.5 * dn * dn)
		zigW[i] = dn / m
	}
}

// Norm returns a standard normal variate by the ziggurat method. The
// layer index and the signed 32-bit abscissa come from disjoint bits of
// one Uint64. Draws outside a layer's inner rectangle take the exact
// wedge test, and the base layer's overhang past zigR is sampled by
// Marsaglia's exponential tail method, so the result is exactly normal
// up to the 32-bit resolution of the abscissa.
func (r *RNG) Norm() float64 {
	for {
		u := r.Uint64()
		i := u & 127
		j := int32(u >> 32)
		x := float64(j) * zigW[i]
		if abs32(j) < zigK[i] {
			return x
		}
		if i == 0 {
			// Tail beyond zigR.
			for {
				tx := -math.Log(1-r.Float64()) / zigR
				ty := -math.Log(1 - r.Float64())
				if ty+ty >= tx*tx {
					if j < 0 {
						return -zigR - tx
					}
					return zigR + tx
				}
			}
		}
		// Wedge between the layer's rectangle and the curve.
		if zigF[i]+r.Float64()*(zigF[i-1]-zigF[i]) < math.Exp(-0.5*x*x) {
			return x
		}
	}
}

// abs32 returns |j| without overflowing at math.MinInt32.
func abs32(j int32) uint32 {
	if j < 0 {
		return uint32(-int64(j))
	}
	return uint32(j)
}

// NormAt returns a normal variate with the given mean and standard
// deviation.
func (r *RNG) NormAt(mean, stddev float64) float64 {
	return mean + stddev*r.Norm()
}

// LogNormal returns a log-normal variate where the underlying normal has
// the given mu and sigma.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Norm())
}

// Exp returns an exponential variate with the given rate (lambda > 0).
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exp with non-positive rate")
	}
	// 1 - Float64() is in (0, 1], so Log never sees zero.
	return -math.Log(1-r.Float64()) / rate
}

// Geometric returns the number of epochs an agent stays in a state it
// leaves with probability 1-p each epoch; i.e. a geometric variate with
// success probability 1-p, support {1, 2, ...}. Geometric(0) == 1.
func (r *RNG) Geometric(p float64) int {
	if p <= 0 {
		return 1
	}
	if p >= 1 {
		return math.MaxInt32
	}
	n := 1
	for r.Float64() < p {
		n++
	}
	return n
}

// Poisson returns a Poisson variate with the given mean (lambda >= 0).
// Small means use Knuth's product method; large means (> 30) use a
// normal approximation clamped at zero, which keeps the cost O(1) for
// high-rate arrival processes. Poisson(0) == 0.
func (r *RNG) Poisson(lambda float64) int {
	if lambda < 0 {
		panic("stats: Poisson with negative mean")
	}
	if lambda == 0 {
		return 0
	}
	if lambda > 30 {
		n := math.Round(r.NormAt(lambda, math.Sqrt(lambda)))
		if n < 0 {
			return 0
		}
		return int(n)
	}
	limit := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Choice returns a uniformly chosen index weighted by the given
// non-negative weights. It panics if weights is empty or sums to zero.
func (r *RNG) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("stats: Choice with negative weight")
		}
		total += w
	}
	if len(weights) == 0 || total == 0 {
		panic("stats: Choice with empty or zero weights")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
