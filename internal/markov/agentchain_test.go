package markov

import (
	"testing"
)

func TestActiveCoolingChainValidation(t *testing.T) {
	if _, err := ActiveCoolingChain(-0.1, 0.5); err == nil {
		t.Error("negative ps should error")
	}
	if _, err := ActiveCoolingChain(0.5, 1.1); err == nil {
		t.Error("pc > 1 should error")
	}
}

func TestFullStateChainStationary(t *testing.T) {
	c, err := FullStateChain(0.3, 0.5, 0.88, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	sum := pi[StateActive] + pi[StateCooling] + pi[StateRecovery]
	if !almost(sum, 1, 1e-9) {
		t.Errorf("stationary sums to %v", sum)
	}
	// With a nonzero trip probability, recovery carries positive mass.
	if pi[StateRecovery] <= 0 {
		t.Error("recovery should have positive stationary mass")
	}
}

func TestFullStateChainNoTrips(t *testing.T) {
	// With ptrip = 0 the recovery state is never entered and the A/C
	// marginals match the two-state chain.
	c, err := FullStateChain(0.4, 0.5, 0.88, 0)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(pi[StateRecovery], 0, 1e-9) {
		t.Errorf("recovery mass = %v with no trips", pi[StateRecovery])
	}
	// pA = (1-pc)/(1-pc+ps), the Figure 5 chain's closed form.
	if !almost(pi[StateActive], 0.5/0.9, 1e-9) {
		t.Errorf("active mass = %v", pi[StateActive])
	}
}

func TestFullStateChainHighTripRate(t *testing.T) {
	// More trips => more time in recovery.
	low, _ := FullStateChain(0.5, 0.5, 0.88, 0.01)
	high, _ := FullStateChain(0.5, 0.5, 0.88, 0.2)
	pl, err := low.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	ph, err := high.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	if ph[StateRecovery] <= pl[StateRecovery] {
		t.Errorf("recovery mass should grow with trip rate: %v vs %v",
			ph[StateRecovery], pl[StateRecovery])
	}
}

func TestFullStateChainValidation(t *testing.T) {
	if _, err := FullStateChain(0.5, 0.5, 0.88, 1.5); err == nil {
		t.Error("ptrip > 1 should error")
	}
	if _, err := FullStateChain(0.5, 0.5, -0.1, 0); err == nil {
		t.Error("negative pr should error")
	}
}
