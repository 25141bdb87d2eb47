package route

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"sprintgame/internal/cluster"
)

// snaps builds n alive snapshots with unit rate and empty queues.
func snaps(n int) []cluster.RackSnapshot {
	s := make([]cluster.RackSnapshot, n)
	for i := range s {
		s[i] = cluster.RackSnapshot{
			Rack: i, Alive: true, Agents: 10, RateUnits: 10, TripMargin: 1, UPSCharge: 1,
		}
	}
	return s
}

func TestRoundRobinCyclesAliveOnly(t *testing.T) {
	p := NewRoundRobin()
	s := snaps(4)
	s[1].Alive = false
	want := []int{0, 2, 3, 0, 2, 3}
	for i, w := range want {
		if got := p.Pick(Job{}, s); got != w {
			t.Fatalf("pick %d = rack %d, want %d", i, got, w)
		}
	}
}

func TestRandomPicksAliveOnly(t *testing.T) {
	p := NewRandom(9)
	s := snaps(5)
	s[0].Alive = false
	s[3].Alive = false
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		got := p.Pick(Job{}, s)
		if got == 0 || got == 3 {
			t.Fatalf("picked dead rack %d", got)
		}
		seen[got] = true
	}
	if len(seen) != 3 {
		t.Errorf("200 picks covered racks %v, want all of {1,2,4}", seen)
	}
}

func TestLeastLoadedPicksSmallestWait(t *testing.T) {
	p := NewLeastLoaded()
	s := snaps(3)
	s[0].BacklogUnits = 50
	s[1].BacklogUnits = 5
	s[2].BacklogUnits = 20
	if got := p.Pick(Job{Units: 1}, s); got != 1 {
		t.Errorf("pick = %d, want 1", got)
	}
	// Rate matters, not raw backlog: rack 2 at 10x the rate wins.
	s[1].RateUnits = 1
	s[2].RateUnits = 100
	if got := p.Pick(Job{Units: 1}, s); got != 2 {
		t.Errorf("pick = %d, want 2", got)
	}
	// Dead racks never picked even when empty.
	s[1].Alive = true
	s[2].Alive = false
	s[0].Alive = false
	if got := p.Pick(Job{Units: 1}, s); got != 1 {
		t.Errorf("pick = %d, want last alive rack 1", got)
	}
}

func TestSprintAwareAvoidsRecoveringRack(t *testing.T) {
	p := NewSprintAware()
	s := snaps(2)
	// Rack 0 has the shorter queue but is mid-recovery with a long
	// expected exit; rack 1 is healthy.
	s[0].BacklogUnits = 0
	s[0].InRecovery = true
	s[0].RecoveryExit = 0.05 // ~20 epochs until it serves again
	s[1].BacklogUnits = 30
	if got := p.Pick(Job{Units: 1}, s); got != 1 {
		t.Errorf("pick = %d, want healthy rack 1", got)
	}
	// Trip risk: same queues, but rack 0 sprints near the breaker.
	s[0].InRecovery = false
	s[0].RecoveryExit = 0
	s[0].TripMargin = 0.2
	s[1].BacklogUnits = 0
	s[1].TripMargin = 1
	if got := p.Pick(Job{Units: 1}, s); got != 1 {
		t.Errorf("pick = %d, want low-risk rack 1", got)
	}
}

func TestByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := ByName(name, 1)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ByName("fifo", 1); err == nil {
		t.Error("unknown policy should error")
	}
}

// TestPoliciesLeaveSnapshotsUnchanged pins the read-only contract of
// Policy.Pick: the engine hands every policy its live snapshot slice,
// so a policy that wrote to it would corrupt the engine's state.
func TestPoliciesLeaveSnapshotsUnchanged(t *testing.T) {
	s := snaps(5)
	s[1].Alive = false
	s[2].QueueDepth, s[2].BacklogUnits = 7, 30
	s[3].InRecovery, s[3].RecoveryExit, s[3].UPSCharge = true, 0.2, 0.5
	s[4].Sprinters, s[4].TripMargin, s[4].RateUnits = 6, 0.4, 3
	for i := range s {
		s[i].Name = fmt.Sprintf("rack%d", i)
	}
	want := slices.Clone(s)
	for _, name := range PolicyNames() {
		pol, err := ByName(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if got := pol.Pick(Job{ID: i, Units: float64(i%5 + 1)}, s); got < 0 || got >= len(s) || !s[got].Alive {
				t.Fatalf("%s: pick %d = rack %d", name, i, got)
			}
		}
		if !reflect.DeepEqual(s, want) {
			t.Fatalf("%s modified the snapshots it was handed", name)
		}
	}
}
