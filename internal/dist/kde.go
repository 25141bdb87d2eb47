package dist

import (
	"errors"
	"math"
	"sort"

	"sprintgame/internal/stats"
)

// KDE is a Gaussian kernel density estimate over a sample, matching the
// kernel density plots of Figure 10 in the paper. Bandwidth defaults to
// Silverman's rule of thumb.
type KDE struct {
	samples   []float64 // sorted
	bandwidth float64
	mean      float64
}

// NewKDE builds a KDE over samples. If bandwidth <= 0, Silverman's rule
// h = 0.9 * min(sd, IQR/1.34) * n^(-1/5) is applied (falling back to a
// small positive bandwidth for degenerate samples).
func NewKDE(samples []float64, bandwidth float64) (*KDE, error) {
	if len(samples) == 0 {
		return nil, errors.New("dist: KDE needs samples")
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	if bandwidth <= 0 {
		bandwidth = silverman(sorted)
	}
	return &KDE{
		samples:   sorted,
		bandwidth: bandwidth,
		mean:      stats.Mean(sorted),
	}, nil
}

func silverman(sorted []float64) float64 {
	n := float64(len(sorted))
	sd := stats.StdDev(sorted)
	iqr := stats.Quantile(sorted, 0.75) - stats.Quantile(sorted, 0.25)
	spread := sd
	if iqr > 0 && iqr/1.34 < spread {
		spread = iqr / 1.34
	}
	if spread <= 0 {
		// Degenerate sample: pick a bandwidth proportional to magnitude.
		spread = math.Max(math.Abs(sorted[0])*0.01, 1e-3)
	}
	return 0.9 * spread * math.Pow(n, -0.2)
}

// Mean returns the sample mean (also the mean of the KDE).
func (k *KDE) Mean() float64 { return k.mean }

// Support extends the sample range by 4 bandwidths on each side.
func (k *KDE) Support() (float64, float64) {
	return k.samples[0] - 4*k.bandwidth, k.samples[len(k.samples)-1] + 4*k.bandwidth
}

// PDF evaluates the kernel density estimate at x. Kernels further than 6
// bandwidths from x are skipped using the sorted sample order.
func (k *KDE) PDF(x float64) float64 {
	h := k.bandwidth
	lo := sort.SearchFloat64s(k.samples, x-6*h)
	hi := sort.SearchFloat64s(k.samples, x+6*h)
	sum := 0.0
	for _, s := range k.samples[lo:hi] {
		z := (x - s) / h
		sum += math.Exp(-0.5 * z * z)
	}
	return sum / (float64(len(k.samples)) * h * math.Sqrt(2*math.Pi))
}

// CDF evaluates the KDE's cumulative distribution (mean of kernel CDFs).
func (k *KDE) CDF(x float64) float64 {
	h := k.bandwidth
	sum := 0.0
	for _, s := range k.samples {
		sum += 0.5 * (1 + math.Erf((x-s)/(h*math.Sqrt2)))
	}
	return sum / float64(len(k.samples))
}

// Sample draws from the KDE: a random sample plus Gaussian kernel noise.
func (k *KDE) Sample(r *stats.RNG) float64 {
	s := k.samples[r.Intn(len(k.samples))]
	return s + r.NormAt(0, k.bandwidth)
}

// Curve evaluates the density on n evenly spaced points across the
// support, returning xs and the density values. This is the series plotted
// in Figure 10.
func (k *KDE) Curve(n int) (xs, ys []float64) {
	lo, hi := k.Support()
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		xs[i] = x
		ys[i] = k.PDF(x)
	}
	return xs, ys
}
