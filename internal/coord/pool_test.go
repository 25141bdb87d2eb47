package coord

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"sprintgame/internal/core"
	"sprintgame/internal/dist"
	"sprintgame/internal/stats"
	"sprintgame/internal/telemetry"
)

// referencePool pools every profile from scratch: a fresh density per
// agent, in sorted agent order, concatenated per class and merged by
// poolAtoms. The coordinator re-pools only the classes a Submit changed,
// and must match this bit for bit.
func referencePool(t *testing.T, profiles map[string]Profile) []core.AgentClass {
	t.Helper()
	agents := make([]string, 0, len(profiles))
	for id := range profiles {
		agents = append(agents, id)
	}
	sort.Strings(agents)
	type agg struct {
		count           int
		values, weights []float64
	}
	byClass := map[string]*agg{}
	for _, id := range agents {
		p := profiles[id]
		a := byClass[p.Class]
		if a == nil {
			a = &agg{}
			byClass[p.Class] = a
		}
		a.count++
		d, err := dist.NewDiscrete(p.Values, p.Weights)
		if err != nil {
			t.Fatal(err)
		}
		a.values = append(a.values, d.Values()...)
		a.weights = append(a.weights, d.Probs()...)
	}
	names := make([]string, 0, len(byClass))
	for name := range byClass {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []core.AgentClass
	for _, name := range names {
		a := byClass[name]
		d, err := poolAtoms(a.values, a.weights)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, core.AgentClass{Name: name, Count: a.count, Density: d})
	}
	return out
}

// sameClasses reports the first difference between two pooled class
// lists: names, counts and every atom, bitwise.
func sameClasses(got, want []core.AgentClass) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d classes, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Count != w.Count || g.Density.Len() != w.Density.Len() {
			return fmt.Errorf("class %d = %s×%d with %d atoms, want %s×%d with %d atoms",
				i, g.Name, g.Count, g.Density.Len(), w.Name, w.Count, w.Density.Len())
		}
		for j := 0; j < w.Density.Len(); j++ {
			gx, gp := g.Density.Atom(j)
			wx, wp := w.Density.Atom(j)
			if math.Float64bits(gx) != math.Float64bits(wx) || math.Float64bits(gp) != math.Float64bits(wp) {
				return fmt.Errorf("class %s atom %d = (%v, %v), want (%v, %v)", w.Name, j, gx, gp, wx, wp)
			}
		}
	}
	return nil
}

// TestIncrementalPoolMatchesFullRepool runs seeded random sequences of
// new agents, resubmits, class moves and emptied classes, with fetches
// interleaved, and checks after every fetch that the coordinator's
// pooled classes and strategies equal those of pooling every agent from
// scratch, and that the fetch re-pooled exactly the classes changed
// since the previous one. Class "wide" gets profiles of 40 distinct
// random values, so it soon holds more than poolBins distinct atoms and
// pools through the histogram; the other classes draw values from a
// coarse grid, so duplicates merge across agents.
func TestIncrementalPoolMatchesFullRepool(t *testing.T) {
	classes := []string{"grid-a", "grid-b", "grid-c", "wide"}
	for seed := uint64(1); seed <= 4; seed++ {
		r := stats.NewRNG(seed)
		c, err := NewCoordinator(gameConfig())
		if err != nil {
			t.Fatal(err)
		}
		profiles := map[string]Profile{}
		dirty := map[string]bool{}
		submit := func(agent, class string) {
			n := 16
			if class == "wide" {
				n = 40
			}
			values := make([]float64, n)
			weights := make([]float64, n)
			for i := range values {
				if class == "wide" {
					values[i] = r.Range(0.5, 10)
				} else {
					values[i] = 0.5 * float64(1+r.Intn(12))
				}
				weights[i] = 0.1 + r.Float64()
			}
			p := Profile{Agent: agent, Class: class, Values: values, Weights: weights}
			if err := c.Submit(p); err != nil {
				t.Fatal(err)
			}
			if old, ok := profiles[agent]; ok {
				dirty[old.Class] = true
			}
			dirty[class] = true
			profiles[agent] = p
		}
		agentsOf := func(class string) []string {
			var ids []string
			for id, p := range profiles {
				if p.Class == class {
					ids = append(ids, id)
				}
			}
			sort.Strings(ids)
			return ids
		}
		anyAgent := func() string {
			ids := make([]string, 0, len(profiles))
			for id := range profiles {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			return ids[r.Intn(len(ids))]
		}

		fetches, solved, emptied, wideHistogram := 0, 0, false, false
		for step := 0; step < 240; step++ {
			switch op := r.Intn(10); {
			case len(profiles) < 4 || op < 4: // a new agent
				submit(fmt.Sprintf("agent-%03d", len(profiles)), classes[r.Intn(len(classes))])
			case op < 6: // resubmit in the same class
				id := anyAgent()
				submit(id, profiles[id].Class)
			case op < 8: // move to another class
				id := anyAgent()
				submit(id, classes[r.Intn(len(classes))])
			case op == 8: // empty a grid class into the others
				from := classes[r.Intn(3)]
				for _, id := range agentsOf(from) {
					submit(id, classes[(r.Intn(2)+1+slices.Index(classes, from))%3])
					emptied = true
				}
			default:
				strategies, repooled, err := fetchCounted(t, c)
				fetches++
				want := referencePool(t, profiles)
				if err := sameClasses(c.pooled.classes, want); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				stillDirty := 0
				for name := range dirty {
					if len(agentsOf(name)) > 0 {
						stillDirty++
					}
				}
				if repooled != stillDirty {
					t.Fatalf("seed %d step %d: re-pooled %d classes, %d changed", seed, step, repooled, stillDirty)
				}
				dirty = map[string]bool{}
				for _, cl := range want {
					if cl.Name == "wide" && cl.Count*40 > poolBins && cl.Density.Len() <= poolBins {
						wideHistogram = true
					}
				}
				wantStrategies, wantErr := referenceStrategies(want)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("seed %d step %d: error %v, reference error %v", seed, step, err, wantErr)
				}
				if !reflect.DeepEqual(strategies, wantStrategies) {
					t.Fatalf("seed %d step %d: strategies %+v, reference %+v", seed, step, strategies, wantStrategies)
				}
				if err == nil {
					solved++
				}
			}
		}
		if solved == 0 || !emptied || !wideHistogram {
			t.Fatalf("seed %d: %d of %d fetches solved, emptied %v, wide histogram %v: the sequence missed a case",
				seed, solved, fetches, emptied, wideHistogram)
		}
	}
}

// fetchCounted fetches strategies under a tracer and returns the
// coord.pool span's repooled count with them.
func fetchCounted(t *testing.T, c *Coordinator) (map[string]Strategy, int, error) {
	t.Helper()
	var buf bytes.Buffer
	tracer := telemetry.NewTracer(&buf)
	dispatch := tracer.StartSpan("coord.dispatch", telemetry.TraceIDFromSeed(1))
	strategies, _, err := c.ComputeStrategiesSpanned(dispatch)
	dispatch.End()
	for _, s := range decodeSpans(t, buf.Bytes()) {
		if s.Name == "coord.pool" {
			return strategies, s.Repooled, err
		}
	}
	t.Fatal("fetch emitted no coord.pool span")
	return nil, 0, nil
}

// referenceStrategies solves the reference classes the way a fetch
// does and returns the strategies it would hand out.
func referenceStrategies(classes []core.AgentClass) (map[string]Strategy, error) {
	cfg := gameConfig()
	cfg.N = 0
	counts := map[string]int{}
	for _, cl := range classes {
		cfg.N += cl.Count
		counts[cl.Name] = cl.Count
	}
	eq, err := core.FindEquilibrium(classes, cfg)
	if err != nil {
		return nil, err
	}
	if !eq.Converged {
		return nil, errors.New("unconverged")
	}
	out := map[string]Strategy{}
	for _, cl := range eq.Classes {
		out[cl.Name] = Strategy{Class: cl.Name, Threshold: cl.Threshold, SprintProb: cl.SprintProb,
			Ptrip: eq.Ptrip, Agents: counts[cl.Name]}
	}
	return out, nil
}

// BenchmarkCoordinatorResubmit measures what one profile change costs
// the coordinator: one agent's resubmit and the fetch after it, which
// re-pools and re-solves. 256 agents in 3 classes report 16-bin
// profiles, the shape coordbench and the serve-churn workload use.
func BenchmarkCoordinatorResubmit(b *testing.B) {
	const agents, classes, bins = 256, 3, 16
	r := stats.NewRNG(1)
	profile := func(a int) Profile {
		values := make([]float64, bins)
		weights := make([]float64, bins)
		for i := range values {
			values[i] = 1 + 0.5*float64(a%classes) + 0.4*float64(i)
			weights[i] = 0.2 + r.Float64()
		}
		return Profile{Agent: fmt.Sprintf("agent-%d", a), Class: fmt.Sprintf("class-%d", a%classes),
			Values: values, Weights: weights}
	}
	c, err := NewCoordinator(gameConfig())
	if err != nil {
		b.Fatal(err)
	}
	for a := 0; a < agents; a++ {
		if err := c.Submit(profile(a)); err != nil {
			b.Fatal(err)
		}
	}
	if _, _, err := c.ComputeStrategies(); err != nil {
		b.Fatal(err)
	}
	// Pre-draw the resubmitted profiles so the loop times only the
	// coordinator.
	resubmits := make([]Profile, 64)
	for i := range resubmits {
		resubmits[i] = profile(r.Intn(agents))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Submit(resubmits[i%len(resubmits)]); err != nil {
			b.Fatal(err)
		}
		if _, _, err := c.ComputeStrategies(); err != nil {
			b.Fatal(err)
		}
	}
}
