// Package markov implements finite discrete-time Markov chains: validation,
// stationary distributions (power iteration and direct linear solve), and
// simulation.
//
// The sprinting game uses a two-state Active/Cooling chain per agent
// (Figure 5 of the paper) whose stationary probability of being active,
// pA, feeds the expected sprinter count nS = pS * pA * N (Eq. 10). A
// three-state chain including Recovery is used for time-in-state analysis
// (Figure 7).
package markov

import (
	"errors"
	"fmt"
	"math"

	"sprintgame/internal/stats"
)

// Chain is a finite Markov chain with a row-stochastic transition matrix
// P, where P[i][j] = P(next = j | current = i).
type Chain struct {
	p [][]float64
}

// New validates and constructs a chain over the named states, indexed in
// the order given. Every row of p must be a probability vector over
// len(names) states.
func New(names []string, p [][]float64) (*Chain, error) {
	n := len(names)
	if n == 0 {
		return nil, errors.New("markov: no states")
	}
	if len(p) != n {
		return nil, fmt.Errorf("markov: %d states but %d transition rows", n, len(p))
	}
	rows := make([][]float64, n)
	for i, row := range p {
		if len(row) != n {
			return nil, fmt.Errorf("markov: row %d has %d entries, want %d", i, len(row), n)
		}
		total := 0.0
		for j, v := range row {
			if v < -1e-12 || math.IsNaN(v) {
				return nil, fmt.Errorf("markov: invalid probability P[%d][%d] = %v", i, j, v)
			}
			total += v
		}
		if math.Abs(total-1) > 1e-9 {
			return nil, fmt.Errorf("markov: row %d sums to %v", i, total)
		}
		rows[i] = append([]float64(nil), row...)
	}
	return &Chain{p: rows}, nil
}

// MustNew is New that panics on error.
func MustNew(names []string, p [][]float64) *Chain {
	c, err := New(names, p)
	if err != nil {
		panic(err)
	}
	return c
}

// Step advances one state transition from state i using r.
func (c *Chain) Step(i int, r *stats.RNG) int {
	u := r.Float64()
	cum := 0.0
	for j, v := range c.p[i] {
		cum += v
		if u < cum {
			return j
		}
	}
	return len(c.p[i]) - 1
}

// StationaryPower computes the stationary distribution by power iteration
// from the uniform distribution, to the given L1 tolerance, up to maxIter
// iterations. It returns an error if the iteration does not converge
// (e.g. for periodic chains).
func (c *Chain) StationaryPower(tol float64, maxIter int) ([]float64, error) {
	n := len(c.p)
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	next := make([]float64, n)
	for iter := 0; iter < maxIter; iter++ {
		for j := range next {
			next[j] = 0
		}
		for i := range pi {
			if pi[i] == 0 {
				continue
			}
			for j, v := range c.p[i] {
				next[j] += pi[i] * v
			}
		}
		diff := 0.0
		for j := range next {
			diff += math.Abs(next[j] - pi[j])
		}
		pi, next = next, pi
		if diff < tol {
			return pi, nil
		}
	}
	return nil, errors.New("markov: power iteration did not converge")
}

// Stationary computes the stationary distribution by directly solving
// pi P = pi, sum(pi) = 1 with Gaussian elimination. This works for any
// irreducible chain, including periodic ones.
func (c *Chain) Stationary() ([]float64, error) {
	n := len(c.p)
	// Build (P^T - I) with the last equation replaced by sum(pi) = 1.
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			a[i][j] = c.p[j][i]
		}
		a[i][i] -= 1
	}
	for j := 0; j < n; j++ {
		a[n-1][j] = 1
	}
	b[n-1] = 1
	pi, err := SolveLinear(a, b)
	if err != nil {
		return nil, fmt.Errorf("markov: stationary solve failed: %w", err)
	}
	for i, v := range pi {
		if v < -1e-8 {
			return nil, fmt.Errorf("markov: negative stationary probability %v (chain may be reducible)", v)
		}
		if v < 0 {
			pi[i] = 0
		}
	}
	return pi, nil
}

// OccupancyFractions simulates steps transitions from state start and
// returns the fraction of time spent in each state. Used to cross-check
// analytic stationary distributions.
func (c *Chain) OccupancyFractions(start, steps int, r *stats.RNG) []float64 {
	counts := make([]float64, len(c.p))
	s := start
	for i := 0; i < steps; i++ {
		counts[s]++
		s = c.Step(s, r)
	}
	for i := range counts {
		counts[i] /= float64(steps)
	}
	return counts
}

// SolveLinear solves the dense linear system a·x = b using Gaussian
// elimination with partial pivoting. a and b are not modified.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, errors.New("markov: bad system dimensions")
	}
	// Work on copies.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, errors.New("markov: non-square matrix")
		}
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-14 {
			return nil, errors.New("markov: singular matrix")
		}
		m[col], m[pivot] = m[pivot], m[col]
		inv := 1 / m[col][col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for k := col; k <= n; k++ {
				m[r][k] -= f * m[col][k]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = m[i][n] / m[i][i]
	}
	return x, nil
}
