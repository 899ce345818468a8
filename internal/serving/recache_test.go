package serving

import (
	"context"
	"testing"

	"sushi/internal/accel"
	"sushi/internal/sched"
	"sushi/internal/supernet"
	"sushi/internal/workload"
)

// newRecacheSystem builds a StateUnaware system booted on column 0: the
// scheduler itself never updates the cache, so every observed switch
// comes from the cache-management layer alone.
func newRecacheSystem(t *testing.T) *System {
	t.Helper()
	s, fr := fixtures(t, supernet.MobileNetV3)
	sys, err := New(s, fr, Options{
		Accel:        accel.ZCU104(),
		Policy:       sched.StrictLatency,
		Q:            4,
		Mode:         StateUnaware,
		Candidates:   12,
		StaticColumn: 0,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// drifting is the PR-2 drifting constraint stream: accuracy demand
// moves from the frontier's low end to its high end over the stream.
func drifting(t *testing.T, sys *System, n int) []sched.Query {
	t.Helper()
	tab := sys.Table()
	accLo := tab.SubNets[0].Accuracy
	accHi := tab.SubNets[tab.Rows()-1].Accuracy
	lat := latRange(sys)
	qs, err := workload.Drifting(n,
		workload.Range{Lo: accLo - 0.2, Hi: accLo + 0.3},
		workload.Range{Lo: accHi - 0.3, Hi: accHi},
		lat, lat, 9)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

// TestRecacheSwitchesUnderDrift is the satellite property test's live
// half: a replica under a drifting query mix eventually switches its
// cache column, and the switch moves both the scheduler's belief and
// the simulator's Persistent Buffer coherently.
func TestRecacheSwitchesUnderDrift(t *testing.T) {
	sys := newRecacheSystem(t)
	rep := soloReplica(t, 0, sys)
	rep.EnableRecache(RecachePolicy{Window: 8, MinGain: 0.01, Cooldown: 8})
	qs := drifting(t, sys, 120)
	sawRecached := false
	for _, q := range qs {
		res, err := rep.Serve(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheSwapped {
			t.Fatalf("StateUnaware system emitted a scheduler-driven swap for query %d", q.ID)
		}
		sawRecached = sawRecached || res.Recached
	}
	switches, sec := rep.RecacheStats()
	if switches == 0 || !sawRecached {
		t.Fatalf("drifting workload never triggered a re-cache (switches=%d, outcome flag=%v)", switches, sawRecached)
	}
	if sec <= 0 {
		t.Errorf("%d switches but zero modeled fill time", switches)
	}
	rep.Inspect(func(s *System) {
		col := s.Scheduler().CacheColumn()
		if col == 0 {
			t.Error("scheduler cache belief still on the boot column after re-caching")
		}
		cached := s.Simulator().Cached()
		if cached == nil || cached.Name() != s.Table().Graphs[col].Name() {
			t.Errorf("simulator cache %v does not match scheduler column %d", cached, col)
		}
	})
}

// TestRecacheDisabledKeepsLegacyBehaviour pins the compatibility
// property: with re-caching disabled (the default), a replica's served
// stream is bit-identical to a plain System serving the same queries —
// the pre-heterogeneity behaviour per seed.
func TestRecacheDisabledKeepsLegacyBehaviour(t *testing.T) {
	plain := newRecacheSystem(t)
	wrapped := soloReplica(t, 0, newRecacheSystem(t))
	qs := drifting(t, plain, 60)
	for _, q := range qs {
		want, err := plain.Serve(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wrapped.Serve(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %d diverged: replica %+v vs system %+v", q.ID, got, want)
		}
	}
	if switches, _ := wrapped.RecacheStats(); switches != 0 {
		t.Errorf("re-caching disabled but %d switches recorded", switches)
	}
}

// TestRecacheAdvisorRespectsCooldownAndWindow: no advice before the
// window fills, none during the cooldown.
func TestRecacheAdvisorRespectsCooldownAndWindow(t *testing.T) {
	sys := newRecacheSystem(t)
	rep := soloReplica(t, 0, sys)
	rep.EnableRecache(RecachePolicy{Window: 16, MinGain: 0.01, Cooldown: 50})
	qs := drifting(t, sys, 15) // one short of the window
	for _, q := range qs {
		if _, err := rep.Serve(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if switches, _ := rep.RecacheStats(); switches != 0 {
		t.Fatalf("switched before the window filled (%d switches)", switches)
	}
	// Fill the window and run far enough that only the cooldown can be
	// limiting: at most one switch fits in 120 queries with cooldown 50
	// after the first at >= 16.
	more := drifting(t, sys, 120)
	for _, q := range more {
		if _, err := rep.Serve(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if switches, _ := rep.RecacheStats(); switches > 3 {
		t.Errorf("cooldown 50 allows at most 3 switches in 135 queries, got %d", switches)
	}
}

// TestSystemRecacheValidation covers the mutable-cache primitive's
// error paths.
func TestSystemRecacheValidation(t *testing.T) {
	sys := newRecacheSystem(t)
	if _, err := sys.Recache(-1); err == nil {
		t.Error("negative column accepted")
	}
	if _, err := sys.Recache(sys.Table().Cols()); err == nil {
		t.Error("out-of-range column accepted")
	}
	s, fr := fixtures(t, supernet.MobileNetV3)
	noPB, err := New(s, fr, Options{
		Accel:      accel.ZCU104(),
		Policy:     sched.StrictLatency,
		Q:          4,
		Mode:       NoPB,
		Candidates: 4,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noPB.Recache(0); err == nil {
		t.Error("NoPB system accepted a re-cache")
	}
	// A valid switch reports the fill cost of the non-resident cells.
	target := 1
	fill, err := sys.Recache(target)
	if err != nil {
		t.Fatal(err)
	}
	if fill <= 0 {
		t.Errorf("switch from column 0 to %d reported non-positive fill %g", target, fill)
	}
	if got := sys.Scheduler().CacheColumn(); got != target {
		t.Errorf("scheduler column %d after Recache(%d)", got, target)
	}
}

// TestFastestRouterPrefersFasterHardware: with identical queue depths,
// the fastest router must send a query to the replica whose own table
// predicts the lower latency for it.
func TestFastestRouterPrefersFasterHardware(t *testing.T) {
	s, fr := fixtures(t, supernet.MobileNetV3)
	mk := func(cfg accel.Config) *Replica {
		opt := Options{
			Accel:        cfg,
			Policy:       sched.StrictLatency,
			Q:            4,
			Mode:         Full,
			Candidates:   6,
			StaticColumn: 0,
			Seed:         1,
		}
		sys, err := New(s, fr, opt)
		if err != nil {
			t.Fatal(err)
		}
		return soloReplica(t, 0, sys)
	}
	// The two boards genuinely disagree per query (§5.4.2: the derated
	// U50 loses small SubNets, wins large ones), so the router must
	// follow each replica's OWN table: feasible replicas outrank
	// infeasible ones (whose prediction is a best-effort fallback), and
	// within equal feasibility the lower predicted latency wins at equal
	// queue depth.
	zcu, u50 := mk(accel.ZCU104()), mk(accel.AlveoU50())
	reps := []*Replica{u50, zcu}
	router := NewFastest()
	disagree, split := false, false
	// Sweep budgets from infeasible-everywhere through the split region
	// (only one board fits) to loose (the most accurate SubNet wins).
	for budget := 1e-3; budget < 8e-3; budget += 2.5e-4 {
		q := sched.Query{MaxLatency: budget}
		u50Lat, u50OK := u50.predicted(q)
		zcuLat, zcuOK := zcu.predicted(q)
		want := 0
		switch {
		case zcuOK && !u50OK:
			want = 1
		case u50OK && !zcuOK:
			want = 0
		default:
			if zcuLat < u50Lat {
				want = 1
			}
		}
		if got := router.Pick(q, reps); got != want {
			t.Errorf("budget %.2f ms: picked replica %d, want %d (u50 %.4f/feas=%v vs zcu %.4f/feas=%v)",
				budget*1e3, got, want, u50Lat, u50OK, zcuLat, zcuOK)
		}
		if want == 1 {
			disagree = true
		}
		if u50OK != zcuOK {
			split = true
		}
	}
	if !disagree {
		t.Error("fixture never made the ZCU104 the preferred board; sweep lost its point")
	}
	if !split {
		t.Error("fixture never produced a feasibility split; the feasibility-first rule went unexercised")
	}
}
