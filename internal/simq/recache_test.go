package simq

import (
	"math"
	"testing"

	"sushi/internal/accel"
	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/workload"
)

// newRecacheReplica builds a single StateUnaware replica booted on
// column 0 with the cache-management layer enabled: every cache switch
// comes from re-caching, never from Algorithm 1.
func newRecacheReplica(t *testing.T, pol serving.RecachePolicy) *serving.Replica {
	t.Helper()
	s, fr := fixtures(t)
	// StrictLatency with tight, varying budgets: feasibility is
	// cache-column dependent (a column covering the demanded SubNets
	// serves them within budget, others miss), which is what moves the
	// advisor. MobileNetV3's pure latency spread across columns is tiny
	// (Table 5's ~1% observation), so a loose-budget stream would never
	// cross MinGain.
	sys, err := serving.New(s, fr, serving.Options{
		Accel:        accel.ZCU104(),
		Policy:       sched.StrictLatency,
		Q:            4,
		Mode:         serving.StateUnaware,
		Candidates:   12,
		StaticColumn: 0,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := soloReplica(t, 0, sys)
	rep.EnableRecache(pol)
	return rep
}

// driftingBatch is a drifting constraint stream arriving all at t=0:
// on a single replica every query queues, so virtual time is exactly
// the sum of everything the engine charges.
func driftingBatch(t *testing.T, rep *serving.Replica, n int) []serving.TimedQuery {
	t.Helper()
	var accLo, accHi, latLo, latHi float64
	rep.Inspect(func(s *serving.System) {
		tab := s.Table()
		accLo = tab.SubNets[0].Accuracy
		accHi = tab.SubNets[tab.Rows()-1].Accuracy
		latLo = tab.Lookup(0, 0)
		latHi = tab.Lookup(tab.Rows()-1, 0)
	})
	qs, err := workload.Drifting(n,
		workload.Range{Lo: accLo - 0.2, Hi: accLo + 0.3},
		workload.Range{Lo: accHi - 0.3, Hi: accHi},
		workload.Range{Lo: latLo * 0.9, Hi: latHi * 1.1},
		workload.Range{Lo: latLo * 0.9, Hi: latHi * 1.1}, 9)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]serving.TimedQuery, n)
	for i, q := range qs {
		out[i] = serving.TimedQuery{Query: q, Arrival: 0}
	}
	return out
}

// TestRecacheCostChargedInVirtualTime is the satellite property test's
// engine half: a window-driven cache switch occupies the replica for
// its Persistent Buffer fill in virtual seconds — the next queued query
// starts exactly RecacheSec after the previous one finished, and the
// run's makespan is exactly the sum of every service latency and every
// charged fill (so queue-position percentiles like p99 E2E reflect the
// switches by construction).
func TestRecacheCostChargedInVirtualTime(t *testing.T) {
	rep := newRecacheReplica(t, serving.RecachePolicy{Window: 8, MinGain: 0.01, Cooldown: 8})
	eng, err := New([]*serving.Replica{rep}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	res, err := eng.Run(driftingBatch(t, rep, n))
	if err != nil {
		t.Fatal(err)
	}
	if res.Recaches == 0 || res.RecacheSec <= 0 {
		t.Fatalf("drifting batch triggered no charged re-cache (recaches=%d, sec=%g)", res.Recaches, res.RecacheSec)
	}
	// Single replica, batch arrival: outcome i+1 starts exactly when i's
	// service (plus any charged fill) ends.
	var wantTotal float64
	for i, o := range res.Outcomes {
		sv := res.Service(i)
		wantTotal += sv.Latency + sv.RecacheSec
		if i+1 < len(res.Outcomes) {
			next := res.Timed(i + 1).Start
			wantStart := o.Finish + sv.RecacheSec
			if math.Abs(next-wantStart) > 1e-12 {
				t.Fatalf("query %d starts at %g, want %g (prev finish %g + recache %g)",
					i+1, next, wantStart, o.Finish, sv.RecacheSec)
			}
		}
	}
	last, lastRecache := res.Outcomes[n-1], res.Service(n-1).RecacheSec
	if diff := math.Abs(last.Finish - (wantTotal - lastRecache)); diff > 1e-9 {
		t.Errorf("virtual time leaked: last finish %g, charged total %g", last.Finish, wantTotal-lastRecache)
	}
	// The tail queries queued behind every switch, so tail E2E must
	// exceed pure service latency by at least the total charged fill.
	if res.Summary.P99E2E < res.Summary.P99Latency+res.RecacheSec {
		t.Errorf("p99 E2E %g does not reflect %g of charged re-cache time (p99 service %g)",
			res.Summary.P99E2E, res.RecacheSec, res.Summary.P99Latency)
	}
}

// TestRecacheDisabledEngineUnchanged pins determinism/compatibility at
// the engine level: two fresh, identical deployments without re-caching
// produce bit-identical runs, and enabling re-caching with an
// unreachable gain threshold also reproduces them exactly — the layer
// observes but never acts.
func TestRecacheDisabledEngineUnchanged(t *testing.T) {
	run := func(enable bool) *Result {
		var rep *serving.Replica
		if enable {
			// A window longer than the stream: the layer observes every
			// query but can never act, so it must be inert.
			rep = newRecacheReplica(t, serving.RecachePolicy{Window: 1000})
		} else {
			// The same deployment without the layer at all.
			s, fr := fixtures(t)
			sys, err := serving.New(s, fr, serving.Options{
				Accel:        accel.ZCU104(),
				Policy:       sched.StrictLatency,
				Q:            4,
				Mode:         serving.StateUnaware,
				Candidates:   12,
				StaticColumn: 0,
				Seed:         1,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep = soloReplica(t, 0, sys)
		}
		eng, err := New([]*serving.Replica{rep}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(driftingBatch(t, rep, 60))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(false)
	same := run(false)
	inert := run(true)
	for i := range base.Outcomes {
		if !sameRecord(base, same, i) {
			t.Fatalf("identical deployments diverged at outcome %d", i)
		}
		if !sameRecord(base, inert, i) {
			t.Fatalf("inert re-cache layer changed outcome %d: %+v %+v vs %+v %+v",
				i, inert.Outcomes[i], inert.Service(i), base.Outcomes[i], base.Service(i))
		}
	}
	if inert.Recaches != 0 || inert.RecacheSec != 0 {
		t.Errorf("inert layer charged %d switches / %g s", inert.Recaches, inert.RecacheSec)
	}
}
