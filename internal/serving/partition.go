package serving

import "fmt"

// PartitionMode selects how a multi-tenant replica splits its shared
// Persistent Buffer between co-hosted models.
type PartitionMode int

const (
	// PartitionStatic fixes the equal boot-time split (PB/M per model)
	// for the lifetime of the deployment — the isolation end of the
	// consolidation-vs-isolation trade-off.
	PartitionStatic PartitionMode = iota
	// PartitionTraffic re-apportions PB shares to the observed per-model
	// traffic every Window served queries: a hot model steals half-slots
	// from a cold one, enacted through the existing cache-switch
	// machinery (System.Recache / sched.Scheduler.SetColumn) with the
	// fill cost modeled exactly like a window-driven re-cache.
	PartitionTraffic
)

// String implements fmt.Stringer.
func (m PartitionMode) String() string {
	switch m {
	case PartitionStatic:
		return "static"
	case PartitionTraffic:
		return "traffic"
	default:
		return fmt.Sprintf("PartitionMode(%d)", int(m))
	}
}

// ParsePartitionMode maps the HTTP/CLI names to PartitionMode values.
func ParsePartitionMode(name string) (PartitionMode, error) {
	switch name {
	case "", "static":
		return PartitionStatic, nil
	case "traffic":
		return PartitionTraffic, nil
	default:
		return 0, fmt.Errorf("serving: unknown partition mode %q (want static or traffic)", name)
	}
}

// PartitionPolicy configures the shared-PB cache partitioner of a
// multi-tenant replica. The Persistent Buffer is divided into 2M
// half-slots for M co-hosted models; every model starts at the static
// split of 2 half-slots (PB/M) and — in PartitionTraffic mode — shares
// are re-apportioned to the observed per-model traffic (largest-
// remainder rounding, floor one half-slot, cap M+1 half-slots) every
// Window served queries. All decisions are pure functions of the
// observed query sequence, so runs stay deterministic per seed. The
// zero value selects the static split.
type PartitionPolicy struct {
	// Mode picks static vs traffic-weighted splitting.
	Mode PartitionMode
	// Window is the number of replica-served queries between traffic
	// rebalances (default 32; ignored in static mode).
	Window int
}

// Validate rejects option values the partitioner would misread; zero
// values are valid (they select defaults).
func (p PartitionPolicy) Validate() error {
	switch p.Mode {
	case PartitionStatic, PartitionTraffic:
	default:
		return fmt.Errorf("serving: unknown partition mode %d", int(p.Mode))
	}
	if p.Window < 0 {
		return fmt.Errorf("serving: partition window %d must be non-negative", p.Window)
	}
	return nil
}

// withDefaults resolves zero-valued fields.
func (p PartitionPolicy) withDefaults() PartitionPolicy {
	if p.Window <= 0 {
		p.Window = 32
	}
	return p
}

// partitionState is one replica's shared-PB partitioner bookkeeping.
// It is owned by the replica and mutated only under the replica lock.
type partitionState struct {
	pol PartitionPolicy
	// halfSlot is the stealing granularity in bytes: PB/(2M).
	halfSlot int64
	// slots is the total half-slot budget 2M; maxSlots caps one tenant
	// at M+1 (every other tenant keeps its floor of 1).
	slots, maxSlots int
	// switches and switchSec total the share-driven cache switches and
	// their modeled fill time in seconds.
	switches  int
	switchSec float64
}

func newPartitionState(pol PartitionPolicy, pbBytes int64, tenants int) *partitionState {
	pol = pol.withDefaults()
	return &partitionState{
		pol:      pol,
		halfSlot: pbBytes / int64(2*tenants),
		slots:    2 * tenants,
		maxSlots: tenants + 1,
	}
}

// apportion distributes slots across weights by largest remainder,
// clamped to [lo, hi] per entry. Ties break toward the lower index, so
// the result is a pure function of its inputs. A zero weight vector
// splits equally.
func apportion(weights []int, slots, lo, hi int) []int {
	n := len(weights)
	total := 0
	for _, w := range weights {
		total += w
	}
	out := make([]int, n)
	rem := make([]float64, n)
	sum := 0
	for i, w := range weights {
		q := float64(slots) / float64(n)
		if total > 0 {
			q = float64(slots) * float64(w) / float64(total)
		}
		b := int(q)
		if b < lo {
			b = lo
		}
		if b > hi {
			b = hi
		}
		out[i] = b
		rem[i] = q - float64(b)
		sum += b
	}
	for sum < slots {
		best := -1
		for i := range out {
			if out[i] >= hi {
				continue
			}
			if best < 0 || rem[i] > rem[best] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out[best]++
		rem[best]--
		sum++
	}
	for sum > slots {
		worst := -1
		for i := range out {
			if out[i] <= lo {
				continue
			}
			if worst < 0 || rem[i] < rem[worst] {
				worst = i
			}
		}
		if worst < 0 {
			break
		}
		out[worst]--
		rem[worst]++
		sum--
	}
	return out
}

// bestFitColumn picks the cache column holding the largest SubGraph
// that fits share bytes (ties toward the lower index), or -1 when no
// column fits. "Biggest cache that fits" maximizes SubGraph-Stationary
// reuse for whatever mix lands next; the per-tenant cache-management
// layer then fine-tunes WITHIN the share by replayed traffic.
func bestFitColumn(sys *System, share int64) int {
	tab := sys.Table()
	best, bestBytes := -1, int64(-1)
	for j := 0; j < tab.Cols(); j++ {
		b := tab.GraphBytes(j)
		if b <= share && b > bestBytes {
			best, bestBytes = j, b
		}
	}
	return best
}

// maybeRebalance re-apportions PB shares to the observed per-model
// traffic once the window has filled, enacting cache switches for
// every tenant whose share moved: a shrunk tenant is FORCED onto a
// column that fits its new share, a grown tenant takes the largest
// column its new share admits (only when strictly larger than its
// current cache — growth is opportunistic, shrinking is mandatory).
// enact receives each switched tenant and the modeled fill cost in
// seconds (the caller charges it to the next query or to virtual
// time). The caller owns the replica lock. Static mode never
// rebalances.
func (ps *partitionState) maybeRebalance(r *Replica, enact func(*tenant, float64)) {
	if ps.pol.Mode != PartitionTraffic {
		return
	}
	window := 0
	for _, t := range r.tenants {
		window += t.windowQueries
	}
	if window < ps.pol.Window {
		return
	}
	weights := make([]int, len(r.tenants))
	for i, t := range r.tenants {
		weights[i] = t.windowQueries
		t.windowQueries = 0
	}
	targets := apportion(weights, ps.slots, 1, ps.maxSlots)
	for i, t := range r.tenants {
		share := int64(targets[i]) * ps.halfSlot
		if share == t.shareBytes {
			continue
		}
		grew := share > t.shareBytes
		t.shareBytes = share
		t.sys.Scheduler().SetCacheBudget(share)
		if t.sys.mode == NoPB {
			continue
		}
		cur := t.sys.table.GraphBytes(t.sys.cachedCol)
		switch {
		case !grew && cur > share:
			// Mandatory eviction: the tenant's cache no longer fits its
			// share.
		case grew:
			// Opportunistic growth: only switch for a strictly larger
			// cache.
		default:
			continue
		}
		col := bestFitColumn(t.sys, share)
		if col < 0 || col == t.sys.Scheduler().CacheColumn() {
			continue
		}
		if grew && t.sys.table.GraphBytes(col) <= cur {
			continue
		}
		cost, err := t.sys.Recache(col)
		if err != nil {
			continue
		}
		ps.switches++
		ps.switchSec += cost
		enact(t, cost)
		r.publishCache(t)
	}
}
