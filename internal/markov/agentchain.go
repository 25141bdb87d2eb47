package markov

import "fmt"

// Agent state indices for the chains built in this file.
const (
	StateActive   = 0
	StateCooling  = 1
	StateRecovery = 2
)

// ActiveCoolingChain builds the two-state chain of Figure 5: an active
// agent sprints with probability ps (moving to cooling) and a cooling
// agent stays cooling with probability pc. Recovery is excluded because
// the paper's sprint distribution is conditioned on the rack not being in
// recovery (§4.1).
func ActiveCoolingChain(ps, pc float64) (*Chain, error) {
	if err := checkProb("ps", ps); err != nil {
		return nil, err
	}
	if err := checkProb("pc", pc); err != nil {
		return nil, err
	}
	return New(
		[]string{"active", "cooling"},
		[][]float64{
			{1 - ps, ps},
			{1 - pc, pc},
		},
	)
}

// FullStateChain builds the three-state Active/Cooling/Recovery chain used
// for time-in-state accounting (Figure 7):
//
//   - an active agent sprints with probability ps;
//   - the rack trips with probability ptrip each epoch, sending any agent
//     to recovery regardless of her own action (cooling agents are also
//     swept into recovery when the breaker trips, per Eq. 5);
//   - cooling persists with pc, recovery persists with pr.
func FullStateChain(ps, pc, pr, ptrip float64) (*Chain, error) {
	for _, v := range []struct {
		name string
		p    float64
	}{{"ps", ps}, {"pc", pc}, {"pr", pr}, {"ptrip", ptrip}} {
		if err := checkProb(v.name, v.p); err != nil {
			return nil, err
		}
	}
	stay := 1 - ptrip
	return New(
		[]string{"active", "cooling", "recovery"},
		[][]float64{
			{(1 - ps) * stay, ps * stay, ptrip},
			{(1 - pc) * stay, pc * stay, ptrip},
			{1 - pr, 0, pr},
		},
	)
}

func checkProb(name string, p float64) error {
	if p < 0 || p > 1 || p != p {
		return fmt.Errorf("markov: %s = %v is not a probability", name, p)
	}
	return nil
}
