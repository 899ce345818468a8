package serving

import (
	"sync"
	"testing"
)

func newLifecycleReplica(t *testing.T) *Replica {
	t.Helper()
	return soloReplica(t, 0, newRecacheSystem(t))
}

func TestLifecycleString(t *testing.T) {
	want := map[Lifecycle]string{
		LifecycleActive:   "active",
		LifecycleStandby:  "standby",
		LifecycleDraining: "draining",
		LifecycleRetired:  "retired",
		Lifecycle(99):     "unknown",
	}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("Lifecycle(%d).String() = %q, want %q", l, l.String(), s)
		}
	}
}

// TestLifecycleConcurrentReads hammers the lifecycle atomics from
// telemetry-reader goroutines while a writer walks the replica through
// the boot → drain → retire machine — the /v1/replicas-during-a-run
// interleaving, checked under -race in CI.
func TestLifecycleConcurrentReads(t *testing.T) {
	rep := newLifecycleReplica(t)
	if rep.Lifecycle() != LifecycleActive {
		t.Fatalf("fresh replica is %v, want active (zero value)", rep.Lifecycle())
	}
	states := []Lifecycle{
		LifecycleStandby, LifecycleActive, LifecycleDraining,
		LifecycleRetired, LifecycleActive,
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				l := rep.Lifecycle()
				if l.String() == "unknown" {
					t.Errorf("torn lifecycle read: %d", l)
					return
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		rep.SetLifecycle(states[i%len(states)])
	}
	wg.Wait()
	if got := rep.Lifecycle(); got != states[(2000-1)%len(states)] {
		t.Errorf("final lifecycle %v, want %v", got, states[(2000-1)%len(states)])
	}
}

// TestBootCostMatchesCachedFill pins BootCost to its definition: the
// cached SubGraph's bytes over off-chip bandwidth, per tenant.
func TestBootCostMatchesCachedFill(t *testing.T) {
	rep := newLifecycleReplica(t)
	var want float64
	rep.Inspect(func(sys *System) {
		sim := sys.Simulator()
		if g := sim.Cached(); g != nil {
			want = float64(g.Bytes()) / sim.Config().OffChipBW
		}
	})
	if want == 0 {
		t.Fatal("fixture replica has no cached SubGraph; BootCost pin is vacuous")
	}
	if got := rep.BootCost(); got != want {
		t.Errorf("BootCost %g, want %g", got, want)
	}
}
