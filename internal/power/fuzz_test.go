package power

import (
	"math"
	"testing"
)

// FuzzTripProbability hardens the breaker-curve evaluation: any finite
// current/duration must yield a probability in [0, 1], monotone in both
// arguments, without panics or NaNs.
func FuzzTripProbability(f *testing.F) {
	f.Add(1.25, 150.0)
	f.Add(0.5, 1e9)
	f.Add(25.0, 0.001)
	f.Add(1.0, 0.0)
	f.Add(1.7499, 149.9)

	c := UL489Curve()
	f.Fuzz(func(t *testing.T, current, duration float64) {
		if math.IsNaN(current) || math.IsInf(current, 0) ||
			math.IsNaN(duration) || math.IsInf(duration, 0) {
			t.Skip()
		}
		p := c.TripProbability(current, duration)
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Fatalf("TripProbability(%v, %v) = %v", current, duration, p)
		}
		// Monotonicity in current and duration.
		if current > 0 {
			if p2 := c.TripProbability(current*1.1, duration); p2 < p-1e-12 {
				t.Fatalf("probability fell with higher current: %v -> %v", p, p2)
			}
		}
		if duration >= 0 {
			if p2 := c.TripProbability(current, duration*1.1+0.001); p2 < p-1e-12 {
				t.Fatalf("probability fell with longer duration: %v -> %v", p, p2)
			}
		}
		// Region classification agrees with the probability extremes.
		switch c.Classify(current, duration) {
		case NotTripped:
			if p != 0 {
				t.Fatalf("NotTripped but p=%v", p)
			}
		case Tripped:
			if p != 1 {
				t.Fatalf("Tripped but p=%v", p)
			}
		}
	})
}

// FuzzLinearTripModel checks Eq. (11) over arbitrary bounds and loads.
func FuzzLinearTripModel(f *testing.F) {
	f.Add(250.0, 750.0, 500.0)
	f.Add(0.0, 0.0, 10.0)
	f.Add(100.0, 100.0, 100.0)

	f.Fuzz(func(t *testing.T, nmin, nmax, n float64) {
		if math.IsNaN(nmin) || math.IsNaN(nmax) || math.IsNaN(n) ||
			math.IsInf(nmin, 0) || math.IsInf(nmax, 0) || math.IsInf(n, 0) {
			t.Skip()
		}
		m := LinearTripModel{NMin: nmin, NMax: nmax}
		if nmin < 0 || nmax < nmin {
			t.Skip()
		}
		p := m.Ptrip(n)
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Fatalf("Ptrip(%v) = %v for bounds [%v, %v]", n, p, nmin, nmax)
		}
	})
}
