package serving

// Replica lifecycle: the elastic-fleet state machine. A fixed fleet
// keeps every replica LifecycleActive forever — the zero value — so
// non-autoscaled deployments behave exactly as before. An elastic
// fleet boots its Max replicas up front (cache columns are assigned at
// deploy time, so PartitionPolicy and boot-column invariants hold for
// every replica that could ever serve) and moves them through
//
//	Standby ──boot──▶ Active ──drain──▶ Draining ──empty──▶ Retired
//	   ▲                                                       │
//	   └───────────────────── re-boot ─────────────────────────┘
//
// under the simq engine's control. The state is advisory for the live
// serve paths (they serve whatever is routed to them); the engine is
// the enforcement point — it only routes to Active replicas.

// Lifecycle is a replica's admission state in an elastic fleet.
type Lifecycle int32

const (
	// LifecycleActive admits and serves queries (the zero value: every
	// replica of a fixed fleet is Active forever).
	LifecycleActive Lifecycle = iota
	// LifecycleStandby is booted but not admitting: an elastic fleet's
	// spare capacity, waiting for a scale-up.
	LifecycleStandby
	// LifecycleDraining stopped admitting and is finishing its queued
	// and in-flight work.
	LifecycleDraining
	// LifecycleRetired is drained and out of every router's view; a
	// later scale-up may re-boot it (paying the cold-PB fill again).
	LifecycleRetired
)

// String implements fmt.Stringer (telemetry spelling, lower-case).
func (l Lifecycle) String() string {
	switch l {
	case LifecycleActive:
		return "active"
	case LifecycleStandby:
		return "standby"
	case LifecycleDraining:
		return "draining"
	case LifecycleRetired:
		return "retired"
	}
	return "unknown"
}

// Lifecycle reports the replica's current admission state.
func (r *Replica) Lifecycle() Lifecycle { return Lifecycle(r.life.Load()) }

// SetLifecycle moves the replica to state l. Atomic, so telemetry
// readers (GET /v1/replicas) never tear a transition.
func (r *Replica) SetLifecycle(l Lifecycle) { r.life.Store(int32(l)) }

// BootCost is the virtual-time cost (seconds) of bringing this replica
// up with a cold Persistent Buffer: every tenant's boot-column
// SubGraph streamed from DRAM at the accelerator's off-chip bandwidth
// — exactly a full re-cache fill, which is what a scale-up pays before
// the replica can serve (0 for NoPB replicas: nothing to fill).
func (r *Replica) BootCost() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var c float64
	for _, t := range r.tenants {
		if t.sys.mode != NoPB {
			c += float64(t.sys.table.GraphBytes(t.sys.cachedCol)) / t.sys.sim.Config().OffChipBW
		}
	}
	return c
}
