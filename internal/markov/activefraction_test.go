package markov_test

import (
	"math"
	"testing"
	"testing/quick"

	"sprintgame/internal/core"
	"sprintgame/internal/markov"
	"sprintgame/internal/stats"
)

// These tests check core.ActiveFraction, the closed form Eq. (10) uses
// for pA, against the Figure 5 chain built here.

func TestActiveFractionMatchesStationary(t *testing.T) {
	cases := []struct{ ps, pc float64 }{
		{0.1, 0.5}, {0.9, 0.5}, {0.5, 0.9}, {0.3, 0.0}, {1.0, 0.5},
	}
	for _, c := range cases {
		chain, err := markov.ActiveCoolingChain(c.ps, c.pc)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := chain.Stationary()
		if err != nil {
			t.Fatalf("ps=%v pc=%v: %v", c.ps, c.pc, err)
		}
		want := core.ActiveFraction(c.ps, c.pc)
		if math.Abs(pi[markov.StateActive]-want) > 1e-9 {
			t.Errorf("ps=%v pc=%v: stationary %v vs closed-form %v",
				c.ps, c.pc, pi[markov.StateActive], want)
		}
	}
}

func TestActiveFractionPaperDefaults(t *testing.T) {
	// With pc = 0.5 (Table 2) and an agent that never sprints, she is
	// always active.
	if got := core.ActiveFraction(0, 0.5); got != 1 {
		t.Errorf("never-sprinting agent active fraction = %v", got)
	}
	// A greedy agent (ps = 1) with pc = 0.5: pA = 0.5/1.5 = 1/3 — she
	// spends two thirds of her (non-recovery) time cooling or just
	// finishing a sprint.
	if got := core.ActiveFraction(1, 0.5); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("greedy active fraction = %v", got)
	}
}

func TestActiveFractionAbsorbingCooling(t *testing.T) {
	if core.ActiveFraction(0.5, 1) != 0 {
		t.Error("absorbing cooling with sprints should give pA = 0")
	}
	if core.ActiveFraction(0, 1) != 1 {
		t.Error("absorbing cooling never entered should give pA = 1")
	}
}

func TestActiveFractionMonotone(t *testing.T) {
	// More sprinting => less time active; longer cooling => less active.
	f := func(seedRaw uint32) bool {
		r := stats.NewRNG(uint64(seedRaw))
		ps1 := r.Float64() * 0.5
		ps2 := ps1 + r.Float64()*0.5
		pc := r.Float64() * 0.99
		if core.ActiveFraction(ps2, pc) > core.ActiveFraction(ps1, pc)+1e-12 {
			return false
		}
		pc2 := pc + (0.99-pc)*r.Float64()
		ps := r.Float64()*0.9 + 0.05
		return core.ActiveFraction(ps, pc2) <= core.ActiveFraction(ps, pc)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
