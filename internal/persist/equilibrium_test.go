package persist

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"sprintgame/internal/core"
	"sprintgame/internal/dist"
	"sprintgame/internal/power"
)

// storeInstance builds a small game instance; shift displaces the
// density support so distinct instances hash apart.
func storeInstance(tb testing.TB, shift float64) ([]core.AgentClass, core.Config) {
	tb.Helper()
	const atoms = 40
	values := make([]float64, atoms)
	weights := make([]float64, atoms)
	for i := range values {
		values[i] = 1 + shift + 7*float64(i)/float64(atoms-1)
		weights[i] = 1 + float64(i%5)
	}
	d, err := dist.NewDiscrete(values, weights)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.N = 64
	cfg.Trip = power.LinearTripModel{NMin: 16, NMax: 48}
	return []core.AgentClass{{Name: "synthetic", Count: cfg.N, Density: d}}, cfg
}

// syntheticEq builds a cheap, distinctive equilibrium without running
// the solver — for tests exercising the codec and log, not Algorithm 1.
func syntheticEq(i int) *core.Equilibrium {
	return &core.Equilibrium{
		Ptrip:      float64(i) / 7,
		Sprinters:  1.5 * float64(i),
		Iterations: i + 1,
		Converged:  i%2 == 0,
		Residuals:  []float64{1e-3, 1e-5 * float64(i+1)},
		Classes: []core.ClassOutcome{{
			Name:              fmt.Sprintf("class%d", i),
			Threshold:         0.5 + float64(i),
			SprintProb:        0.25,
			ActiveFrac:        0.8,
			ExpectedSprinters: 3.5,
			Values: core.Values{
				VA: 1.25, VC: -2.5, VR: 3 + float64(i),
				Threshold: 4.75, Ptrip: 0.0625,
			},
		}},
	}
}

// TestEquilibriumStoreRoundTrip pins the tentpole's exactness contract:
// an equilibrium spilled to disk and replayed after a restart is
// DeepEqual to the fresh solve that produced it.
func TestEquilibriumStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eq.log")
	s, loaded, err := OpenEquilibriumStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 0 {
		t.Fatalf("fresh store replayed %d entries", len(loaded))
	}

	fresh := make(map[uint64]*core.Equilibrium)
	for i := 0; i < 3; i++ {
		classes, cfg := storeInstance(t, float64(i))
		eq, err := core.FindEquilibrium(classes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		key := core.SolveKey(classes, cfg)
		if err := s.Put(key, eq); err != nil {
			t.Fatal(err)
		}
		fresh[key] = eq
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, loaded, err := OpenEquilibriumStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Skipped() != 0 {
		t.Fatalf("replay skipped %d records", s2.Skipped())
	}
	if len(loaded) != len(fresh) {
		t.Fatalf("replayed %d entries, want %d", len(loaded), len(fresh))
	}
	for key, want := range fresh {
		if !reflect.DeepEqual(loaded[key], want) {
			t.Errorf("key %x: replayed equilibrium differs from fresh solve", key)
		}
	}
}

func TestEquilibriumStoreNewestRecordWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eq.log")
	s, _, err := OpenEquilibriumStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(42, syntheticEq(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(42, syntheticEq(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, loaded, err := OpenEquilibriumStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(loaded[42], syntheticEq(2)) {
		t.Fatal("replay did not keep the newest record for the key")
	}
}

// TestEquilibriumStoreSkipsForeignAndFutureRecords covers the two
// skip-not-fail paths: records of another kind sharing the file and
// records from a newer codec.
func TestEquilibriumStoreSkipsForeignAndFutureRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eq.log")
	l, _, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(appendEquilibriumRecord(nil, 1, syntheticEq(1))); err != nil {
		t.Fatal(err)
	}
	// A foreign kind: frames and checksums fine, not an equilibrium.
	if err := l.Append([]byte{'P', 1, 'x', 'y'}); err != nil {
		t.Fatal(err)
	}
	// A future codec version of the right kind.
	future := appendEquilibriumRecord(nil, 2, syntheticEq(2))
	future[1] = equilibriumCodecVersion + 1
	if err := l.Append(future); err != nil {
		t.Fatal(err)
	}
	// A record that passes its checksum but decodes short (buggy writer).
	if err := l.Append([]byte{recordKindEquilibrium, equilibriumCodecVersion, 0xab}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(appendEquilibriumRecord(nil, 3, syntheticEq(3))); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	s, loaded, err := OpenEquilibriumStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Skipped() != 3 {
		t.Fatalf("skipped %d records, want 3", s.Skipped())
	}
	if len(loaded) != 2 || loaded[1] == nil || loaded[3] == nil {
		t.Fatalf("replayed keys %v, want {1, 3}", keysOf(loaded))
	}
	if !reflect.DeepEqual(loaded[3], syntheticEq(3)) {
		t.Fatal("good record after skipped ones decoded wrong")
	}
}

// TestEquilibriumStoreSkipsVersion1Records: version 1 records carried a
// per-class sweep count after each class's values. Replayed by the
// version 2 reader they count as skipped, never misdecoded.
func TestEquilibriumStoreSkipsVersion1Records(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eq.log")
	l, _, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	// syntheticEq has one class, so its sweep count ends the record.
	v1 := binary.AppendUvarint(appendEquilibriumRecord(nil, 1, syntheticEq(1)), 101)
	v1[1] = 1
	if err := l.Append(v1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	s, loaded, err := OpenEquilibriumStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Skipped() != 1 || len(loaded) != 0 {
		t.Fatalf("skipped %d, replayed %v: a version 1 record must be skipped", s.Skipped(), keysOf(loaded))
	}
}

func keysOf(m map[uint64]*core.Equilibrium) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// TestEquilibriumStoreConcurrentPut spills from many goroutines — the
// write path the solve cache exercises when concurrent misses resolve
// — and verifies every record replays. Run under -race by check.sh.
func TestEquilibriumStoreConcurrentPut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eq.log")
	s, _, err := OpenEquilibriumStore(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 16
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Put(uint64(i), syntheticEq(i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, loaded, err := OpenEquilibriumStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(loaded) != writers || s2.Skipped() != 0 {
		t.Fatalf("replayed %d entries (%d skipped), want %d clean",
			len(loaded), s2.Skipped(), writers)
	}
	for i := 0; i < writers; i++ {
		if !reflect.DeepEqual(loaded[uint64(i)], syntheticEq(i)) {
			t.Errorf("writer %d's record corrupted by interleaving", i)
		}
	}
}

// TestRestartHitRate is the tentpole's acceptance scenario in package
// form: a cache spills solves through the store, the process
// "restarts" (new store, new cache, same path), and the warmed cache
// serves the entire pre-restart key set without a single re-solve.
func TestRestartHitRate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eq.log")
	store, _, err := OpenEquilibriumStore(path)
	if err != nil {
		t.Fatal(err)
	}
	cache := core.NewSolveCache(0, nil)
	cache.SetStore(store)

	const instances = 10
	before := make([]*core.Equilibrium, instances)
	for i := 0; i < instances; i++ {
		classes, cfg := storeInstance(t, float64(i))
		if before[i], err = cache.FindEquilibrium(classes, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Spills != instances {
		t.Fatalf("spills = %d, want %d", st.Spills, instances)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: fresh cache warmed from the same path.
	store2, loaded, err := OpenEquilibriumStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	cache2 := core.NewSolveCache(0, nil)
	cache2.SetStore(store2)
	if n := cache2.Warm(loaded); n != instances {
		t.Fatalf("warmed %d entries, want %d", n, instances)
	}

	for i := 0; i < instances; i++ {
		classes, cfg := storeInstance(t, float64(i))
		eq, err := cache2.FindEquilibrium(classes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(eq, before[i]) {
			t.Errorf("instance %d: warm result differs from pre-restart solve", i)
		}
	}
	st := cache2.Stats()
	if rate := st.HitRate(); rate < 0.9 {
		t.Fatalf("post-restart hit rate = %.2f (%+v), want >= 0.90", rate, st)
	}
	if st.Misses != 0 {
		t.Fatalf("post-restart misses = %d, want 0", st.Misses)
	}
}
