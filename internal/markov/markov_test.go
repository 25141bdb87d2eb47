package markov

import (
	"math"
	"testing"
	"testing/quick"

	"sprintgame/internal/stats"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func twoState(p01, p10 float64) *Chain {
	return MustNew([]string{"a", "b"}, [][]float64{
		{1 - p01, p01},
		{p10, 1 - p10},
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("no states should error")
	}
	if _, err := New([]string{"a"}, [][]float64{{0.5}}); err == nil {
		t.Error("non-stochastic row should error")
	}
	if _, err := New([]string{"a", "b"}, [][]float64{{1, 0}}); err == nil {
		t.Error("missing rows should error")
	}
	if _, err := New([]string{"a"}, [][]float64{{1, 0}}); err == nil {
		t.Error("wrong row width should error")
	}
	if _, err := New([]string{"a", "b"}, [][]float64{{-0.5, 1.5}, {0.5, 0.5}}); err == nil {
		t.Error("negative probability should error")
	}
}

func TestStationaryTwoState(t *testing.T) {
	c := twoState(0.3, 0.6)
	// pi_a = p10/(p01+p10) = 0.6/0.9.
	want := []float64{2.0 / 3, 1.0 / 3}
	pi, err := c.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !almost(pi[i], want[i], 1e-10) {
			t.Errorf("stationary[%d] = %v, want %v", i, pi[i], want[i])
		}
	}
	pp, err := c.StationaryPower(1e-12, 100000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !almost(pp[i], want[i], 1e-9) {
			t.Errorf("power stationary[%d] = %v", i, pp[i])
		}
	}
}

func TestStationaryPeriodicChain(t *testing.T) {
	// A strictly alternating chain is periodic: power iteration from the
	// uniform start actually sits at the stationary point, so instead use
	// the direct solver as ground truth.
	c := twoState(1, 1)
	pi, err := c.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(pi[0], 0.5, 1e-10) || !almost(pi[1], 0.5, 1e-10) {
		t.Errorf("periodic stationary = %v", pi)
	}
}

func TestStationaryThreeState(t *testing.T) {
	c := MustNew([]string{"a", "c", "r"}, [][]float64{
		{0.5, 0.4, 0.1},
		{0.5, 0.4, 0.1},
		{0.12, 0, 0.88},
	})
	pi, err := c.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range pi {
		sum += v
	}
	if !almost(sum, 1, 1e-9) {
		t.Errorf("stationary sums to %v", sum)
	}
	// Cross-check against long simulation.
	r := stats.NewRNG(7)
	occ := c.OccupancyFractions(0, 400000, r)
	for i := range pi {
		if !almost(occ[i], pi[i], 0.01) {
			t.Errorf("occupancy[%d] = %v vs stationary %v", i, occ[i], pi[i])
		}
	}
}

func TestStepDistribution(t *testing.T) {
	c := twoState(0.25, 0.5)
	r := stats.NewRNG(11)
	moved := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if c.Step(0, r) == 1 {
			moved++
		}
	}
	if f := float64(moved) / n; !almost(f, 0.25, 0.01) {
		t.Errorf("transition frequency = %v", f)
	}
}

func TestSolveLinear(t *testing.T) {
	a := [][]float64{
		{2, 1},
		{1, 3},
	}
	b := []float64{5, 10}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(x[0], 1, 1e-10) || !almost(x[1], 3, 1e-10) {
		t.Errorf("solution = %v", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{
		{1, 1},
		{2, 2},
	}
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Error("singular system should error")
	}
}

func TestSolveLinearDimensionErrors(t *testing.T) {
	if _, err := SolveLinear(nil, nil); err == nil {
		t.Error("empty system should error")
	}
	if _, err := SolveLinear([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("non-square should error")
	}
}

func TestSolveLinearDoesNotMutate(t *testing.T) {
	a := [][]float64{{2, 0}, {0, 2}}
	b := []float64{2, 4}
	if _, err := SolveLinear(a, b); err != nil {
		t.Fatal(err)
	}
	if a[0][0] != 2 || b[1] != 4 {
		t.Error("SolveLinear mutated its inputs")
	}
}

// Property: stationary distribution of a random irreducible 3-state chain
// is a fixed point of the transition matrix.
func TestStationaryFixedPointProperty(t *testing.T) {
	f := func(seed uint32) bool {
		r := stats.NewRNG(uint64(seed))
		n := 3
		p := make([][]float64, n)
		for i := range p {
			p[i] = make([]float64, n)
			total := 0.0
			for j := range p[i] {
				p[i][j] = r.Float64() + 0.05 // strictly positive => irreducible
				total += p[i][j]
			}
			for j := range p[i] {
				p[i][j] /= total
			}
		}
		c, err := New([]string{"0", "1", "2"}, p)
		if err != nil {
			return false
		}
		pi, err := c.Stationary()
		if err != nil {
			return false
		}
		for j := 0; j < n; j++ {
			dot := 0.0
			for i := 0; i < n; i++ {
				dot += pi[i] * p[i][j]
			}
			if !almost(dot, pi[j], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
