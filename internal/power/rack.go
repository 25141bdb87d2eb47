package power

import "math"

// TripModel is the sprinting game's interface to the rack's electrical
// risk: the probability that a given number of simultaneous sprinters
// trips the breaker during one epoch (Figure 3 of the paper).
type TripModel interface {
	// Ptrip returns the probability of tripping the breaker when
	// nSprinters chips sprint for a full epoch.
	Ptrip(nSprinters float64) float64
	// Bounds returns (Nmin, Nmax): below Nmin sprinters the breaker never
	// trips, at or above Nmax it always trips.
	Bounds() (nMin, nMax float64)
}

// LinearTripModel is the paper's piecewise-linear tripping probability,
// Eq. (11):
//
//	Ptrip = 0                      if nS < Nmin
//	Ptrip = (nS-Nmin)/(Nmax-Nmin)  if Nmin <= nS <= Nmax
//	Ptrip = 1                      if nS > Nmax
type LinearTripModel struct {
	NMin, NMax float64
}

// Ptrip evaluates Eq. (11).
func (m LinearTripModel) Ptrip(nSprinters float64) float64 {
	switch {
	case nSprinters < m.NMin:
		return 0
	case nSprinters > m.NMax:
		return 1
	default:
		if m.NMax == m.NMin {
			return 1
		}
		return (nSprinters - m.NMin) / (m.NMax - m.NMin)
	}
}

// Bounds returns (NMin, NMax).
func (m LinearTripModel) Bounds() (float64, float64) { return m.NMin, m.NMax }

// PaperTripModel returns the Table 2 model: Nmin = 250, Nmax = 750 for a
// rack of 1000 chips.
func PaperTripModel() LinearTripModel { return LinearTripModel{NMin: 250, NMax: 750} }

// Rack describes the shared power domain: N chips on a PDU behind one
// breaker, with per-chip normal and sprint power draw.
type Rack struct {
	// Chips is the number of chip multiprocessors sharing the PDU.
	Chips int
	// NormalW and SprintW are per-chip power draws in the two modes. The
	// paper's Spark measurements give SprintW ~ 1.8x NormalW; the breaker
	// sizing discussion in §2.2 uses the round 2x.
	NormalW, SprintW float64
	// RatedW is the branch circuit's rated power. Datacenters
	// oversubscribe: RatedW is below Chips*SprintW but above
	// Chips*NormalW.
	RatedW float64
	// Curve is the breaker's time-current characteristic.
	Curve *TripCurve
	// EpochS is the epoch (and safe sprint) duration in seconds.
	EpochS float64
}

// DefaultRack returns the rack used throughout the reproduction: 1000
// chips drawing 45 W normally and 90 W (2x) in a sprint, a branch circuit
// rated exactly for all-normal operation plus breaker tolerance, UL489
// breaker, 150-second epochs. Its derived trip model matches Table 2:
// Nmin = 250, Nmax = 750.
func DefaultRack() Rack {
	return Rack{
		Chips:   1000,
		NormalW: 45,
		SprintW: 90,
		RatedW:  1000 * 45,
		Curve:   UL489Curve(),
		EpochS:  150,
	}
}

// LoadW returns the PDU load with the given number of sprinters.
func (r Rack) LoadW(nSprinters int) float64 {
	n := float64(r.Chips)
	s := float64(nSprinters)
	return (n-s)*r.NormalW + s*r.SprintW
}

// CurrentNorm returns the load as a multiple of rated current with the
// given number of sprinters.
func (r Rack) CurrentNorm(nSprinters int) float64 {
	return r.LoadW(nSprinters) / r.RatedW
}

// TripProbability returns the probability that the given number of
// sprinters, held for one epoch, trips the breaker.
func (r Rack) TripProbability(nSprinters int) float64 {
	return r.Curve.TripProbability(r.CurrentNorm(nSprinters), r.EpochS)
}

// DeriveTripModel computes (Nmin, Nmax) by scanning sprinter counts
// against the breaker curve, and returns the corresponding linear model.
// This is how the reproduction derives Table 2's Nmin = 250, Nmax = 750
// from the UL489 curve rather than assuming them.
func (r Rack) DeriveTripModel() LinearTripModel {
	nMin := r.Chips
	nMax := r.Chips
	foundMax := false
	for n := 0; n <= r.Chips; n++ {
		p := r.TripProbability(n)
		if p > 0 && n < nMin {
			nMin = n
		}
		if p >= 1 {
			nMax = n
			foundMax = true
			break
		}
	}
	if nMin > nMax {
		nMin = nMax
	}
	if !foundMax {
		nMax = r.Chips
	}
	return LinearTripModel{NMin: float64(nMin), NMax: float64(nMax)}
}

// CurveTripModel adapts a Rack directly as a TripModel, using the exact
// breaker curve rather than the linearized Eq. (11). Used in ablations
// comparing the paper's linear model against the raw curve.
type CurveTripModel struct{ Rack Rack }

// Ptrip returns the breaker curve's trip probability for nSprinters.
func (m CurveTripModel) Ptrip(nSprinters float64) float64 {
	n := int(math.Round(nSprinters))
	if n < 0 {
		n = 0
	}
	if n > m.Rack.Chips {
		n = m.Rack.Chips
	}
	return m.Rack.TripProbability(n)
}

// Bounds scans the curve for the zero/one crossings.
func (m CurveTripModel) Bounds() (float64, float64) {
	lm := m.Rack.DeriveTripModel()
	return lm.NMin, lm.NMax
}
