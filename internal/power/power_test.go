package power

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewTripCurveValidation(t *testing.T) {
	if _, err := NewTripCurve(nil); err == nil {
		t.Error("empty curve should error")
	}
	if _, err := NewTripCurve([]CurvePoint{
		{CurrentNorm: 0.9, MinTimeS: 100, MaxTimeS: 200},
		{CurrentNorm: 2, MinTimeS: 10, MaxTimeS: 20},
	}); err == nil {
		t.Error("current <= 1 should error")
	}
	if _, err := NewTripCurve([]CurvePoint{
		{CurrentNorm: 1.5, MinTimeS: 100, MaxTimeS: 50},
		{CurrentNorm: 2, MinTimeS: 10, MaxTimeS: 20},
	}); err == nil {
		t.Error("inverted band should error")
	}
	if _, err := NewTripCurve([]CurvePoint{
		{CurrentNorm: 1.5, MinTimeS: 100, MaxTimeS: 200},
		{CurrentNorm: 2, MinTimeS: 150, MaxTimeS: 300},
	}); err == nil {
		t.Error("non-decreasing times should error")
	}
}

func TestUL489NeverTripsAtRated(t *testing.T) {
	c := UL489Curve()
	if !math.IsInf(c.MinTripTimeS(1.0), 1) || !math.IsInf(c.MaxTripTimeS(0.8), 1) {
		t.Error("rated-or-below current should never trip")
	}
	if c.TripProbability(1.0, 1e9) != 0 {
		t.Error("trip probability at rated current should be 0")
	}
	if c.Classify(0.9, 1e9) != NotTripped {
		t.Error("below rated should classify NotTripped")
	}
}

func TestUL489SprintWindow(t *testing.T) {
	c := UL489Curve()
	// The paper: 125% overload tolerated for a 150 s sprint (boundary),
	// 175% definitely trips at 150 s.
	if got := c.TripProbability(1.25, 150); got != 0 {
		t.Errorf("P(trip) at 1.25x/150s = %v, want 0", got)
	}
	if got := c.TripProbability(1.75, 150); got != 1 {
		t.Errorf("P(trip) at 1.75x/150s = %v, want 1", got)
	}
	// Between the envelopes the probability is strictly inside (0, 1).
	p := c.TripProbability(1.5, 150)
	if p <= 0 || p >= 1 {
		t.Errorf("P(trip) at 1.5x/150s = %v, want in (0,1)", p)
	}
}

func TestTripCurveMonotoneInCurrentAndTime(t *testing.T) {
	c := UL489Curve()
	f := func(seed uint16) bool {
		i1 := 1.01 + float64(seed%97)/97*15
		i2 := i1 + 0.5
		d := 0.01 + float64(seed%31)*20
		if c.TripProbability(i2, d) < c.TripProbability(i1, d)-1e-12 {
			return false
		}
		return c.TripProbability(i1, d*2) >= c.TripProbability(i1, d)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTripCurveClassifyRegions(t *testing.T) {
	c := UL489Curve()
	if r := c.Classify(1.25, 10); r != NotTripped {
		t.Errorf("short 1.25x load: %v", r)
	}
	if r := c.Classify(1.25, 500); r != NonDeterministic {
		t.Errorf("mid 1.25x load: %v", r)
	}
	if r := c.Classify(1.75, 151); r != Tripped {
		t.Errorf("long 1.75x load: %v", r)
	}
}

func TestRegionString(t *testing.T) {
	if NotTripped.String() != "not-tripped" ||
		NonDeterministic.String() != "non-deterministic" ||
		Tripped.String() != "tripped" {
		t.Error("region names wrong")
	}
	if Region(9).String() == "" {
		t.Error("unknown region should still print")
	}
}

func TestLinearTripModelEq11(t *testing.T) {
	m := PaperTripModel()
	cases := []struct{ n, want float64 }{
		{0, 0}, {249, 0}, {250, 0}, {500, 0.5}, {750, 1}, {751, 1}, {1000, 1},
	}
	for _, c := range cases {
		if got := m.Ptrip(c.n); !almost(got, c.want, 1e-12) {
			t.Errorf("Ptrip(%v) = %v, want %v", c.n, got, c.want)
		}
	}
	if lo, hi := m.Bounds(); lo != 250 || hi != 750 {
		t.Errorf("bounds = %v, %v", lo, hi)
	}
}

func TestLinearTripModelDegenerate(t *testing.T) {
	m := LinearTripModel{NMin: 100, NMax: 100}
	if m.Ptrip(99) != 0 || m.Ptrip(100) != 1 || m.Ptrip(101) != 1 {
		t.Error("degenerate band should step from 0 to 1")
	}
}

func TestDefaultRackValidatesAndLoads(t *testing.T) {
	r := DefaultRack()
	if got := r.LoadW(0); got != 45000 {
		t.Errorf("all-normal load = %v", got)
	}
	if got := r.LoadW(1000); got != 90000 {
		t.Errorf("all-sprint load = %v", got)
	}
	if got := r.CurrentNorm(0); got != 1 {
		t.Errorf("all-normal current = %v, want exactly rated", got)
	}
	// The §2.2 discussion: a sprinter draws 2x a non-sprinter, so 25%
	// sprinters put the rack at 125% rated.
	if got := r.CurrentNorm(250); !almost(got, 1.25, 1e-12) {
		t.Errorf("25%% sprinters current = %v", got)
	}
	if got := r.CurrentNorm(750); !almost(got, 1.75, 1e-12) {
		t.Errorf("75%% sprinters current = %v", got)
	}
}

func TestDeriveTripModelMatchesTable2(t *testing.T) {
	// Deriving (Nmin, Nmax) from the UL489 curve should land on the
	// paper's Table 2 values: the breaker does not trip below 25% of the
	// rack sprinting and always trips at 75%.
	m := DefaultRack().DeriveTripModel()
	if math.Abs(m.NMin-250) > 5 {
		t.Errorf("derived Nmin = %v, want ~250", m.NMin)
	}
	if math.Abs(m.NMax-750) > 5 {
		t.Errorf("derived Nmax = %v, want ~750", m.NMax)
	}
}

func TestCurveTripModelConsistent(t *testing.T) {
	r := DefaultRack()
	m := CurveTripModel{Rack: r}
	if m.Ptrip(0) != 0 {
		t.Error("no sprinters should never trip")
	}
	if m.Ptrip(1000) != 1 {
		t.Error("full-rack sprint should always trip")
	}
	if m.Ptrip(-5) != 0 {
		t.Error("negative sprinters should clamp to 0")
	}
	if m.Ptrip(5000) != 1 {
		t.Error("overflow sprinters should clamp to full rack")
	}
	lo, hi := m.Bounds()
	if lo >= hi {
		t.Errorf("bounds [%v, %v]", lo, hi)
	}
	// Monotone in the sprinter count.
	prev := -1.0
	for n := 0.0; n <= 1000; n += 50 {
		p := m.Ptrip(n)
		if p < prev-1e-12 {
			t.Fatalf("curve trip model not monotone at %v", n)
		}
		prev = p
	}
}

func TestUPSLifecycle(t *testing.T) {
	u, err := NewUPS(1000, 100, 10, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if u.SoC() != 1 || !u.Ready() {
		t.Fatal("fresh UPS should be full and ready")
	}
	supplied, err := u.Discharge(100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if supplied != 500 {
		t.Errorf("supplied = %v", supplied)
	}
	if u.SoC() != 0.5 || u.Ready() {
		t.Errorf("SoC = %v, ready = %v", u.SoC(), u.Ready())
	}
	// Recharge to the 85% target.
	u.Recharge(35) // +350 J => 850 J
	if !u.Ready() {
		t.Errorf("UPS should be ready at SoC %v", u.SoC())
	}
	// Recharging never exceeds capacity.
	u.Recharge(1e6)
	if u.SoC() != 1 {
		t.Errorf("overcharged to %v", u.SoC())
	}
}

func TestUPSDischargeErrors(t *testing.T) {
	u, _ := NewUPS(1000, 100, 10, 0.85)
	if _, err := u.Discharge(200, 1); err == nil {
		t.Error("over-rating discharge should error")
	}
	if _, err := u.Discharge(-1, 1); err == nil {
		t.Error("negative discharge should error")
	}
	// Draining below zero is capped.
	supplied, err := u.Discharge(100, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if supplied != 1000 || u.SoC() != 0 {
		t.Errorf("supplied %v, SoC %v", supplied, u.SoC())
	}
}

func TestUPSValidation(t *testing.T) {
	if _, err := NewUPS(0, 1, 1, 0.85); err == nil {
		t.Error("zero capacity should error")
	}
	if _, err := NewUPS(1, 0, 1, 0.85); err == nil {
		t.Error("zero discharge rating should error")
	}
	if _, err := NewUPS(1, 1, 1, 1.5); err == nil {
		t.Error("bad recharge target should error")
	}
}

func TestDefaultUPSGivesPaperPr(t *testing.T) {
	u := DefaultUPS()
	// pr = 0.88 (Table 2): recovery lasts 1/(1-pr) ~ 8.3 epochs, within
	// the 8-10x discharge-time recharge window of §2.2.
	pr := u.RecoveryStayProbability(150)
	if !almost(pr, 0.88, 0.005) {
		t.Errorf("pr = %v, want ~0.88", pr)
	}
	epochs := u.RecoveryEpochs(150)
	if epochs < 8 || epochs > 10 {
		t.Errorf("recovery epochs = %v, want 8-10", epochs)
	}
	// The UPS must be able to carry a full-rack sprint overload.
	if u.MaxDischargeW < 45000 {
		t.Errorf("discharge rating %v too small", u.MaxDischargeW)
	}
}

func TestRecoveryStayProbabilityEdges(t *testing.T) {
	u, _ := NewUPS(1000, 100, 1000, 0.85)
	// Recharge completes within one epoch: no recovery persistence.
	if got := u.RecoveryStayProbability(10); got != 0 {
		t.Errorf("fast recharge pr = %v", got)
	}
	if got := u.RecoveryStayProbability(0); got != 1 {
		t.Errorf("zero epoch pr = %v, want 1 (never recovers)", got)
	}
}
