package serving

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"sushi/internal/sched"
)

// TestClocksAgree: the live clock (Serve) and the virtual clock
// (ServeBatchVirtualInto, batches of one) run one kernel and differ only
// in where a switch cost goes. One seeded two-tenant stream whose hot
// model alternates — so both the cache-management layer and the
// partitioner act — must therefore leave two fresh replicas with equal
// outcomes and equal switch accounting, and the seconds the virtual
// clock returned must be the seconds its replica booked.
func TestClocksAgree(t *testing.T) {
	fresh := func() *Replica {
		rep := newTenantReplica(t, &PartitionPolicy{Mode: PartitionTraffic, Window: 16})
		rep.EnableRecache(RecachePolicy{})
		return rep
	}
	live, virt := fresh(), fresh()
	rng := rand.New(rand.NewSource(20))
	var returned float64
	recaches := 0
	for i := 0; i < 3000; i++ {
		hot := (i / 250) % 2
		if rng.Intn(5) == 0 {
			hot = 1 - hot
		}
		tn := live.tenants[hot]
		q := randomQueries(rng, tn.sys, i, 1, tn.model, nil)[0]
		want, err := live.Serve(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		var got [1]Served
		sec, err := virt.ServeBatchVirtualInto([]sched.Query{q}, []sched.Query{q}, false, got[:])
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want {
			t.Fatalf("query %d:\nvirtual %+v\n   live %+v", i, got[0], want)
		}
		returned += sec
		if want.Recached {
			recaches++
		}
	}
	ls, lsec := live.RecacheStats()
	vs, vsec := virt.RecacheStats()
	if ls != vs || lsec != vsec {
		t.Errorf("RecacheStats: live (%d, %g s), virtual (%d, %g s)", ls, lsec, vs, vsec)
	}
	lp, lpsec := live.PartitionStats()
	vp, vpsec := virt.PartitionStats()
	if lp != vp || lpsec != vpsec {
		t.Errorf("PartitionStats: live (%d, %g s), virtual (%d, %g s)", lp, lpsec, vp, vpsec)
	}
	// Summed per call, not per layer: the association differs from the
	// replica's own totals, so the contract is relative, not bit-exact.
	if math.Abs(returned-vsec) > 1e-12*vsec {
		t.Errorf("virtual clock returned %g s of switches, its replica booked %g s", returned, vsec)
	}
	if recaches == 0 || vp == 0 {
		t.Fatalf("vacuous: the stream saw %d re-caches and %d rebalance switches, want both > 0", recaches, vp)
	}
}
