package serving

import (
	"testing"

	"sushi/internal/accel"
	"sushi/internal/sched"
	"sushi/internal/supernet"
)

// TestApportion pins the largest-remainder apportionment with floor and
// cap: the partitioner's arithmetic must be a pure, deterministic
// function of the traffic weights.
func TestApportion(t *testing.T) {
	cases := []struct {
		name    string
		weights []int
		slots   int
		lo, hi  int
		want    []int
	}{
		{"equal-zero-traffic", []int{0, 0}, 4, 1, 3, []int{2, 2}},
		{"equal", []int{10, 10}, 4, 1, 3, []int{2, 2}},
		{"hot-cold", []int{30, 2}, 4, 1, 3, []int{3, 1}},
		{"all-one-model", []int{50, 0}, 4, 1, 3, []int{3, 1}},
		{"three-tenants", []int{6, 3, 3}, 6, 1, 4, []int{3, 2, 1}},
		{"three-hot", []int{100, 1, 1}, 6, 1, 4, []int{4, 1, 1}},
		{"ties-break-low", []int{5, 5, 5}, 7, 1, 4, []int{3, 2, 2}},
	}
	for _, tc := range cases {
		got := apportion(tc.weights, tc.slots, tc.lo, tc.hi)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: got %v", tc.name, got)
		}
		sum := 0
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: apportion(%v) = %v, want %v", tc.name, tc.weights, got, tc.want)
				break
			}
			sum += got[i]
		}
		if sum != tc.slots {
			t.Errorf("%s: shares %v sum to %d, want %d", tc.name, got, sum, tc.slots)
		}
	}
}

// newTenantReplica builds a two-model replica (ResNet50 + MobileNetV3)
// on one ZCU104 with share-laddered tables, mirroring the core boot
// path.
func newTenantReplica(t testing.TB, part *PartitionPolicy) *Replica {
	t.Helper()
	cfg := accel.ZCU104()
	tenants := make([]Tenant, 0, 2)
	kinds := []supernet.Kind{supernet.ResNet50, supernet.MobileNetV3}
	names := []string{"resnet50", "mobilenetv3"}
	halfSlot := cfg.PBBytes / 4
	for i, kind := range kinds {
		s, fr := fixtures(t, kind)
		opt := Options{
			Accel:      cfg,
			Policy:     sched.StrictLatency,
			Q:          4,
			Mode:       Full,
			Candidates: 12,
			Seed:       1,
		}
		table, _, err := BuildTenantTable(s, fr, opt, []int64{halfSlot, 2 * halfSlot, 3 * halfSlot})
		if err != nil {
			t.Fatal(err)
		}
		// Boot on the first column fitting the static share (2 half-slots).
		boot := -1
		for j := 0; j < table.Cols(); j++ {
			if table.Graphs[j].Bytes() <= 2*halfSlot {
				boot = j
				break
			}
		}
		if boot < 0 {
			t.Fatalf("no boot column fits the static share for %s", names[i])
		}
		o := opt
		o.Table = table
		o.StaticColumn = boot
		sys, err := New(s, fr, o)
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, Tenant{Model: names[i], Sys: sys})
	}
	rep, err := NewMultiReplica(0, tenants)
	if err != nil {
		t.Fatal(err)
	}
	if part != nil {
		if err := rep.EnablePartition(*part, cfg.PBBytes); err != nil {
			t.Fatal(err)
		}
	}
	return rep
}

// budgetFor returns a latency budget that keeps the model's whole
// frontier feasible on its boot column.
func budgetFor(rep *Replica, model string) float64 {
	var budget float64
	rep.InspectTenants(func(m string, _ int64, sys *System) {
		if m == model {
			tab := sys.Table()
			budget = tab.Lookup(tab.Rows()-1, sys.Scheduler().CacheColumn()) * 1.5
		}
	})
	return budget
}

// sharesOf reads each tenant's current PB share, keyed by model.
func sharesOf(rep *Replica) map[string]int64 {
	shares := map[string]int64{}
	rep.InspectTenants(func(m string, share int64, _ *System) { shares[m] = share })
	return shares
}

// TestPartitionTrafficSteals: under one-sided traffic the hot tenant's
// share grows to the cap, the cold tenant shrinks to the floor, the
// enacted cache states respect the new shares, and the switch cost is
// accounted.
func TestPartitionTrafficSteals(t *testing.T) {
	rep := newTenantReplica(t, &PartitionPolicy{Mode: PartitionTraffic, Window: 16})
	pb := accel.ZCU104().PBBytes
	halfSlot := pb / 4
	hot := budgetFor(rep, "resnet50")
	for i := 0; i < 64; i++ {
		q := sched.Query{ID: i, Model: "resnet50", MaxLatency: hot}
		if _, err := rep.ServeVirtual(q, q, false); err != nil {
			t.Fatal(err)
		}
	}
	shares := sharesOf(rep)
	if shares["resnet50"] != 3*halfSlot {
		t.Errorf("hot tenant share = %d, want cap %d", shares["resnet50"], 3*halfSlot)
	}
	if shares["mobilenetv3"] != halfSlot {
		t.Errorf("cold tenant share = %d, want floor %d", shares["mobilenetv3"], halfSlot)
	}
	rep.InspectTenants(func(m string, share int64, sys *System) {
		if g := sys.Simulator().Cached(); g != nil && g.Bytes() > share {
			t.Errorf("tenant %s caches %d bytes over its %d-byte share", m, g.Bytes(), share)
		}
	})
	// The shrink (and any opportunistic growth) went through the cache-
	// switch machinery with a modeled cost.
	switches, sec := rep.PartitionStats()
	if switches == 0 {
		t.Fatal("one-sided traffic enacted no partition switches")
	}
	if sec <= 0 {
		t.Errorf("partition switches reported non-positive fill time %g", sec)
	}
	// Traffic reversal steals the shares back.
	cold := budgetFor(rep, "mobilenetv3")
	for i := 0; i < 64; i++ {
		q := sched.Query{ID: i, Model: "mobilenetv3", MaxLatency: cold}
		if _, err := rep.ServeVirtual(q, q, false); err != nil {
			t.Fatal(err)
		}
	}
	shares = sharesOf(rep)
	if shares["mobilenetv3"] != 3*halfSlot || shares["resnet50"] != halfSlot {
		t.Errorf("reversal did not steal back: %v", shares)
	}
}

// TestPartitionStaticHolds: static mode never moves shares whatever the
// traffic.
func TestPartitionStaticHolds(t *testing.T) {
	rep := newTenantReplica(t, &PartitionPolicy{Mode: PartitionStatic, Window: 8})
	pb := accel.ZCU104().PBBytes
	hot := budgetFor(rep, "resnet50")
	for i := 0; i < 48; i++ {
		q := sched.Query{ID: i, Model: "resnet50", MaxLatency: hot}
		if _, err := rep.ServeVirtual(q, q, false); err != nil {
			t.Fatal(err)
		}
	}
	shares := sharesOf(rep)
	if shares["resnet50"] != pb/2 || shares["mobilenetv3"] != pb/2 {
		t.Errorf("static split moved: %v", shares)
	}
	if switches, _ := rep.PartitionStats(); switches != 0 {
		t.Errorf("static mode enacted %d switches", switches)
	}
}

// TestRecacheRespectsShare: with partitioning armed, the per-tenant
// cache-management layer never advises a column that exceeds the
// tenant's share.
func TestRecacheRespectsShare(t *testing.T) {
	rep := newTenantReplica(t, &PartitionPolicy{Mode: PartitionStatic})
	rep.EnableRecache(RecachePolicy{Window: 8, MinGain: 0.001, Cooldown: 8})
	hot := budgetFor(rep, "resnet50")
	for i := 0; i < 96; i++ {
		q := sched.Query{ID: i, Model: "resnet50", MaxLatency: hot * (1 + float64(i%7)/7)}
		if _, err := rep.ServeVirtual(q, q, false); err != nil {
			t.Fatal(err)
		}
	}
	rep.InspectTenants(func(m string, share int64, sys *System) {
		if g := sys.Simulator().Cached(); g != nil && g.Bytes() > share {
			t.Errorf("tenant %s re-cached %d bytes over its %d-byte share", m, g.Bytes(), share)
		}
	})
}

// TestMultiReplicaValidation covers the tenant-set invariants and
// model resolution errors.
func TestMultiReplicaValidation(t *testing.T) {
	s, fr := fixtures(t, supernet.MobileNetV3)
	sys, err := New(s, fr, Options{
		Accel: accel.ZCU104(), Policy: sched.StrictLatency, Q: 4, Candidates: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMultiReplica(0, nil); err == nil {
		t.Error("empty tenant set accepted")
	}
	if _, err := NewMultiReplica(0, []Tenant{{Model: "a", Sys: nil}}); err == nil {
		t.Error("nil system accepted")
	}
	if _, err := NewMultiReplica(0, []Tenant{{Model: "a", Sys: sys}, {Model: "a", Sys: sys}}); err == nil {
		t.Error("duplicate model accepted")
	}
	if _, err := NewMultiReplica(0, []Tenant{{Model: "", Sys: sys}, {Model: "b", Sys: sys}}); err == nil {
		t.Error("unnamed tenant in multi-tenant replica accepted")
	}
	rep := soloReplica(t, 0, sys)
	if _, err := rep.tenantFor(""); err != nil {
		t.Error("empty model must resolve on a single-model replica")
	}
	if _, err := rep.tenantFor("resnet50"); err == nil {
		t.Error("unknown model resolved on a single-model replica")
	}
	if err := rep.EnablePartition(PartitionPolicy{}, 1<<20); err == nil {
		t.Error("partitioning accepted on a single-tenant replica")
	}
	two := newTenantReplica(t, nil)
	if tn, err := two.tenantFor(""); err != nil || tn.model != "resnet50" {
		t.Errorf("empty model did not resolve to resnet50 on a two-model replica (%v)", err)
	}
	if _, err := two.ServeVirtual(sched.Query{Model: "nope"}, sched.Query{Model: "nope"}, false); err == nil {
		t.Error("unknown model served")
	} else if _, isUnknown := err.(*UnknownModelError); !isUnknown {
		t.Errorf("unknown model error has type %T, want *UnknownModelError", err)
	}
}
