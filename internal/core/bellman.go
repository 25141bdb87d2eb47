package core

import (
	"errors"
	"fmt"

	"sprintgame/internal/dist"
)

// Values is the solution of the agent's dynamic program for a fixed
// tripping probability: the expected values of the three states and the
// optimal sprinting threshold they induce (Eq. 8).
type Values struct {
	// VA, VC, VR are the expected values of the active, cooling, and
	// recovery states (Eqs. 4-6).
	VA, VC, VR float64
	// Threshold is the optimal sprinting threshold
	// uT = delta * (VA - VC) * (1 - Ptrip); an active agent sprints iff
	// her utility exceeds it.
	Threshold float64
	// Ptrip is the tripping probability the program was solved against.
	Ptrip float64
}

// SolveBellman solves Eqs. (1)-(8) exactly for the utility density f and
// tripping probability ptrip.
//
// Eqs. (5) and (6) are linear in the three values, so VR = r·VA and
// VC = c·VA with
//
//	r = delta (1-pr) / (1 - delta pr)
//	c = delta [(1-ptrip)(1-pc) + ptrip r] / (1 - delta pc (1-ptrip))
//
// and the no-sprint value (Eq. 3) and the sprint continuation (Eq. 2)
// are n·VA and s·VA with n = delta (1-ptrip + ptrip r) and
// s = delta (c (1-ptrip) + ptrip r). Eq. (4) then reads
//
//	VA = G(VA) = E_f[ max(u + s·VA, n·VA) ],
//
// and G is affine between the atoms of f's sorted support: on segment
// k, where the first k atoms lie below the crossover (n-s)·VA and take
// the no-sprint value,
//
//	G(V) = a_k V + b_k,  a_k = cumP[k] n + (1-cumP[k]) s,
//	                     b_k = cumPX[len] - cumPX[k],
//
// with the density's prefix sums cumP and cumPX, whose fixed point is
// VA_k = b_k / (1 - a_k). Moving atom k from sprint to no-sprint raises
// VA_k exactly when u_k < (n-s)·VA_k; that holds for a prefix of
// segments and fails after it, and the solution is the first segment k
// with k = len or u_k >= (n-s)·VA_k (ties sprint), found by binary
// search in O(log n). Both n and s are at most delta, so 1 - a_k >= 1 - delta > 0
// for every pc, pr and ptrip in [0, 1]: no case divides by zero.
func SolveBellman(f *dist.Discrete, ptrip float64, cfg Config) (Values, error) {
	if err := cfg.Validate(); err != nil {
		return Values{}, err
	}
	return solveBellman(f, ptrip, cfg)
}

// solveBellman is the pre-validated entry point: cfg must already have
// passed Validate. Algorithm 1 calls this once per class per fixed-point
// iteration, so re-validating here would dominate small solves.
func solveBellman(f *dist.Discrete, ptrip float64, cfg Config) (Values, error) {
	if f == nil || f.Len() == 0 {
		return Values{}, errors.New("core: empty utility density")
	}
	if ptrip < 0 || ptrip > 1 {
		return Values{}, fmt.Errorf("core: ptrip = %v is not a probability", ptrip)
	}
	d := cfg.Delta
	r := d * (1 - cfg.Pr) / (1 - d*cfg.Pr)
	c := d * ((1-ptrip)*(1-cfg.Pc) + ptrip*r) / (1 - d*cfg.Pc*(1-ptrip))
	n := d * (1 - ptrip + ptrip*r)
	s := d * (c*(1-ptrip) + ptrip*r)

	xs, _, cumP, cumPX := f.KernelView()
	size := len(xs)
	segment := func(k int) float64 {
		a := cumP[k]*n + (cumP[size]-cumP[k])*s
		return (cumPX[size] - cumPX[k]) / (1 - a)
	}
	// Smallest k in [0, size) whose atom sprints at VA_k; size if none.
	lo, hi := 0, size
	for lo < hi {
		k := int(uint(lo+hi) >> 1)
		if xs[k] >= (n-s)*segment(k) {
			hi = k
		} else {
			lo = k + 1
		}
	}
	vA := segment(lo)
	vC := c * vA
	return Values{
		VA:        vA,
		VC:        vC,
		VR:        r * vA,
		Threshold: d * (vA - vC) * (1 - ptrip),
		Ptrip:     ptrip,
	}, nil
}

// SprintProbability is Eq. (9): the probability an active agent's utility
// exceeds her threshold in a given epoch.
func SprintProbability(f *dist.Discrete, threshold float64) float64 {
	return f.TailProb(threshold)
}

// ActiveFraction is the stationary probability that an agent is active
// rather than cooling, in the two-state chain of Figure 5 (recovery
// excluded, as the paper conditions the sprint distribution on the rack
// not recovering).
func ActiveFraction(sprintProb, pc float64) float64 {
	if pc >= 1 {
		if sprintProb > 0 {
			return 0
		}
		return 1
	}
	return (1 - pc) / (1 - pc + sprintProb)
}
