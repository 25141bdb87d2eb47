package core

import (
	"errors"
	"fmt"
	"math"

	"sprintgame/internal/dist"
	"sprintgame/internal/markov"
)

// The analytic throughput model. Task accounting per agent-epoch,
// normalized to normal-mode throughput = 1:
//
//   - an active epoch without a sprint completes 1 unit;
//   - a sprint epoch completes u units (u is the normalized TPS gain, and
//     the UPS carries sprints in progress through a trip, §2.2);
//   - a cooling epoch computes normally: 1 unit;
//   - a recovery epoch completes 0 units — the rack sheds load while its
//     batteries recharge after a power emergency (the paper's "idle
//     recovery", Figure 6 discussion).
//
// This accounting is shared with the rack simulator so analytic and
// simulated results are directly comparable.

// Throughput describes the long-run per-agent task rate of a population
// of identical agents all playing a given threshold.
type Throughput struct {
	// Threshold is the shared sprinting threshold evaluated.
	Threshold float64
	// Rate is expected task units per agent-epoch (normal mode == 1).
	Rate float64
	// SprintProb, ActiveFrac, Sprinters, Ptrip are the induced
	// population statistics.
	SprintProb float64
	ActiveFrac float64
	Sprinters  float64
	Ptrip      float64
	// StateShares are the stationary occupancies of
	// [active, cooling, recovery] including trip dynamics.
	StateShares [3]float64
}

// EvaluateThreshold computes the analytic long-run throughput when every
// one of the cfg.N agents uses the given threshold against density f.
func EvaluateThreshold(f *dist.Discrete, threshold float64, cfg Config) (Throughput, error) {
	if err := cfg.Validate(); err != nil {
		return Throughput{}, err
	}
	if f == nil || f.Len() == 0 {
		return Throughput{}, errors.New("core: empty utility density")
	}
	ps := SprintProbability(f, threshold)
	pa := ActiveFraction(ps, cfg.Pc)
	nS := ps * pa * float64(cfg.N)
	ptrip := cfg.Trip.Ptrip(nS)
	rate, pi, err := agentRate(f, threshold, ps, ptrip, cfg)
	if err != nil {
		return Throughput{}, err
	}
	return Throughput{
		Threshold:   threshold,
		Rate:        rate,
		SprintProb:  ps,
		ActiveFrac:  pa,
		Sprinters:   nS,
		Ptrip:       ptrip,
		StateShares: [3]float64{pi[markov.StateActive], pi[markov.StateCooling], pi[markov.StateRecovery]},
	}, nil
}

// agentRate is one agent's long-run task rate when it sprints above
// threshold against density f (sprint probability ps) under tripping
// probability ptrip. It returns the rate and the stationary occupancies
// of the agent's full-state chain: an active epoch completes 1 unit, or
// the mean sprinted utility when the agent sprints, and a cooling epoch
// completes 1 unit.
func agentRate(f *dist.Discrete, threshold, ps, ptrip float64, cfg Config) (float64, []float64, error) {
	chain, err := markov.FullStateChain(ps, cfg.Pc, cfg.Pr, ptrip)
	if err != nil {
		return 0, nil, err
	}
	pi, err := chain.Stationary()
	if err != nil {
		return 0, nil, fmt.Errorf("core: stationary solve: %w", err)
	}
	// Mean utility of epochs the agent chooses to sprint.
	condMean := 1.0
	if ps > 0 {
		condMean = f.TailMean(threshold) / ps
	}
	return pi[markov.StateActive]*((1-ps)+ps*condMean) + pi[markov.StateCooling], pi, nil
}

// thresholdCandidates lists the thresholds worth searching against f:
// one below and one above the support, then the midpoint of each pair
// of adjacent atoms. Thresholds between the same two atoms sprint on
// the same utilities, so no other threshold does better.
func thresholdCandidates(f *dist.Discrete) []float64 {
	lo, hi := f.Support()
	candidates := []float64{lo - 1, hi + 1}
	vals := f.Values()
	for i := 0; i+1 < len(vals); i++ {
		candidates = append(candidates, (vals[i]+vals[i+1])/2)
	}
	return candidates
}

// DeviantRate returns the long-run task rate of a single agent playing
// `threshold` while the rest of the population holds system conditions
// at tripping probability ptrip. Unlike EvaluateThreshold, the agent's
// own behavior does not move Ptrip — she is one of N (§2.3). Used to
// evaluate unilateral deviations and misreports analytically.
func DeviantRate(f *dist.Discrete, threshold, ptrip float64, cfg Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if f == nil || f.Len() == 0 {
		return 0, errors.New("core: empty utility density")
	}
	if ptrip < 0 || ptrip > 1 {
		return 0, fmt.Errorf("core: ptrip = %v is not a probability", ptrip)
	}
	rate, _, err := agentRate(f, threshold, SprintProbability(f, threshold), ptrip, cfg)
	return rate, err
}

// OptimalLongRunThreshold searches for the threshold that maximizes a
// single agent's long-run average task rate against fixed system
// conditions (DeviantRate). The Bellman threshold maximizes *discounted*
// value; with delta = 0.99 the two nearly coincide, and the abl-discount
// ablation quantifies the residual gap.
func OptimalLongRunThreshold(f *dist.Discrete, ptrip float64, cfg Config) (threshold, rate float64, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	if f == nil || f.Len() == 0 {
		return 0, 0, errors.New("core: empty utility density")
	}
	candidates := thresholdCandidates(f)
	bestRate := math.Inf(-1)
	bestTh := candidates[0]
	for _, th := range candidates {
		r, err := DeviantRate(f, th, ptrip, cfg)
		if err != nil {
			return 0, 0, err
		}
		if r > bestRate {
			bestRate, bestTh = r, th
		}
	}
	return bestTh, bestRate, nil
}

// CooperativeResult is the outcome of the C-T search: the globally
// optimal shared threshold and its throughput.
type CooperativeResult struct {
	Best Throughput
	// Evaluated is the number of candidate thresholds searched.
	Evaluated int
}

// CooperativeThreshold exhaustively searches for the shared threshold
// that maximizes system throughput (the paper's C-T policy, §6). The
// search sweeps candidate thresholds across the density's support —
// thresholds between adjacent atoms are equivalent, so candidates are the
// atom midpoints plus the extremes — and is refined with the analytic
// rate model. C-T is an upper bound obtained by central enforcement, not
// an equilibrium.
func CooperativeThreshold(f *dist.Discrete, cfg Config) (CooperativeResult, error) {
	if err := cfg.Validate(); err != nil {
		return CooperativeResult{}, err
	}
	if f == nil || f.Len() == 0 {
		return CooperativeResult{}, errors.New("core: empty utility density")
	}
	candidates := append(thresholdCandidates(f), f.Values()...)
	best := Throughput{Rate: math.Inf(-1)}
	for _, th := range candidates {
		t, err := EvaluateThreshold(f, th, cfg)
		if err != nil {
			return CooperativeResult{}, err
		}
		if t.Rate > best.Rate {
			best = t
		}
	}
	return CooperativeResult{Best: best, Evaluated: len(candidates)}, nil
}

// Efficiency is §6.4's (informal) metric: the ratio of equilibrium
// throughput (E-T) to the cooperative optimum (C-T) for a single
// application class.
func Efficiency(f *dist.Discrete, cfg Config) (ratio float64, et Throughput, ct Throughput, err error) {
	eq, err := SingleClass("app", f, cfg)
	if err != nil {
		return 0, Throughput{}, Throughput{}, err
	}
	et, err = EvaluateThreshold(f, eq.Classes[0].Threshold, cfg)
	if err != nil {
		return 0, Throughput{}, Throughput{}, err
	}
	coop, err := CooperativeThreshold(f, cfg)
	if err != nil {
		return 0, Throughput{}, Throughput{}, err
	}
	ct = coop.Best
	if ct.Rate <= 0 {
		return 0, et, ct, errors.New("core: degenerate cooperative throughput")
	}
	return et.Rate / ct.Rate, et, ct, nil
}
