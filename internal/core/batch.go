package core

// SolveRequest is one game instance of a batch: the arguments of one
// FindEquilibriumWarm call. Warm, when non-nil, seeds the instance's
// Algorithm 1 from a previous solution (e.g. a cached neighbour's
// equilibrium); nil cold-starts from Ptrip = 1.
type SolveRequest struct {
	Classes []AgentClass
	Cfg     Config
	Warm    *WarmStart
}

// BatchResult pairs one request's equilibrium with its error; exactly
// one of the two is set, mirroring FindEquilibrium's return.
type BatchResult struct {
	Eq  *Equilibrium
	Err error
}

// SolveBatch solves many game instances, returning one result per
// request in order: each result is exactly what FindEquilibriumWarm
// returns for the request's (Classes, Cfg, Warm), telemetry included.
// Cluster presolve uses it to solve a fleet's distinct racks;
// cmd/experiments uses it for multi-instance sweeps.
func SolveBatch(reqs []SolveRequest) []BatchResult {
	out := make([]BatchResult, len(reqs))
	for i, r := range reqs {
		out[i].Eq, out[i].Err = FindEquilibriumWarm(r.Classes, r.Cfg, r.Warm)
	}
	return out
}
