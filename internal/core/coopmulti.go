package core

import (
	"errors"
	"fmt"
	"math"
)

// MultiThroughput is the analytic long-run system rate when each class
// plays its own threshold.
type MultiThroughput struct {
	// Rate is task units per agent-epoch across the whole rack.
	Rate float64
	// Ptrip is the induced tripping probability.
	Ptrip float64
	// Sprinters is the expected total sprinter count.
	Sprinters float64
	// ClassRates holds each class's per-agent rate, in input order.
	ClassRates []float64
}

// EvaluateThresholds computes the analytic system throughput for a
// heterogeneous rack where class k plays thresholds[k]. It generalizes
// EvaluateThreshold: the tripping probability couples the classes, while
// cooling and recovery dynamics stay per-agent.
func EvaluateThresholds(classes []AgentClass, thresholds []float64, cfg Config) (MultiThroughput, error) {
	if err := cfg.Validate(); err != nil {
		return MultiThroughput{}, err
	}
	if len(classes) == 0 || len(classes) != len(thresholds) {
		return MultiThroughput{}, fmt.Errorf("core: %d classes but %d thresholds", len(classes), len(thresholds))
	}
	total := 0
	nS := 0.0
	for i, c := range classes {
		if err := c.Validate(); err != nil {
			return MultiThroughput{}, err
		}
		ps := SprintProbability(c.Density, thresholds[i])
		nS += ps * ActiveFraction(ps, cfg.Pc) * float64(c.Count)
		total += c.Count
	}
	if total != cfg.N {
		return MultiThroughput{}, fmt.Errorf("core: class counts sum to %d, config N = %d", total, cfg.N)
	}
	ptrip := cfg.Trip.Ptrip(nS)
	out := MultiThroughput{Ptrip: ptrip, Sprinters: nS, ClassRates: make([]float64, len(classes))}
	for i, c := range classes {
		ps := SprintProbability(c.Density, thresholds[i])
		rate, _, err := agentRate(c.Density, thresholds[i], ps, ptrip, cfg)
		if err != nil {
			return MultiThroughput{}, err
		}
		out.ClassRates[i] = rate
		out.Rate += rate * float64(c.Count) / float64(cfg.N)
	}
	return out, nil
}

// CooperativeThresholdMulti approximates the jointly optimal per-class
// thresholds by coordinate descent: starting from each class's
// single-class cooperative optimum scaled into the mix, it repeatedly
// re-optimizes one class's threshold over its density's atom midpoints
// while holding the others fixed, until a full sweep yields no
// improvement. The paper notes the exact joint search is computationally
// hard (§6.2); this heuristic gives a lower bound on the cooperative
// optimum (and therefore a valid upper-bound *target* for E-T, since any
// feasible threshold assignment bounds the optimum from below).
func CooperativeThresholdMulti(classes []AgentClass, cfg Config) (thresholds []float64, best MultiThroughput, err error) {
	if len(classes) == 0 {
		return nil, MultiThroughput{}, errors.New("core: no classes")
	}
	// Initialize: every class refuses to sprint; descent opens sprints
	// where they pay.
	thresholds = make([]float64, len(classes))
	for i, c := range classes {
		_, hi := c.Density.Support()
		thresholds[i] = hi + 1
	}
	best, err = EvaluateThresholds(classes, thresholds, cfg)
	if err != nil {
		return nil, MultiThroughput{}, err
	}
	for sweep := 0; sweep < 20; sweep++ {
		improved := false
		for i, c := range classes {
			bestTh := thresholds[i]
			bestRate := best.Rate
			trial := append([]float64(nil), thresholds...)
			for _, th := range thresholdCandidates(c.Density) {
				trial[i] = th
				mt, err := EvaluateThresholds(classes, trial, cfg)
				if err != nil {
					return nil, MultiThroughput{}, err
				}
				if mt.Rate > bestRate+1e-12 {
					bestRate = mt.Rate
					bestTh = th
				}
			}
			if bestTh != thresholds[i] {
				thresholds[i] = bestTh
				best, err = EvaluateThresholds(classes, thresholds, cfg)
				if err != nil {
					return nil, MultiThroughput{}, err
				}
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	if math.IsInf(best.Rate, 0) || math.IsNaN(best.Rate) {
		return nil, MultiThroughput{}, errors.New("core: degenerate multi-class throughput")
	}
	return thresholds, best, nil
}
