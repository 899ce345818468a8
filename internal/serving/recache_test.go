package serving

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"sushi/internal/accel"
	"sushi/internal/latencytable"
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

// predicted is what the fastest router reads off one replica: the
// latency its own table predicts for q under the published column and
// the feasibility verdict (+Inf, false when q cannot be scheduled).
func predicted(rep *Replica, q sched.Query) (float64, bool) {
	var d sched.Decision
	if _, _, ok := rep.peek(q, false, &d); ok {
		return d.PredictedLatency, d.Feasible
	}
	return math.Inf(1), false
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
		u50Lat, u50OK := predicted(u50, q)
		zcuLat, zcuOK := predicted(zcu, q)
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

// TestRecachePolicyValidate: MinGain must lie below 1; NaN fails too,
// because a NaN MinGain would let any latency gain trigger a switch.
func TestRecachePolicyValidate(t *testing.T) {
	for _, g := range []float64{-1, 0, 0.05, 0.999} {
		if err := (RecachePolicy{MinGain: g}).Validate(); err != nil {
			t.Errorf("MinGain %g rejected: %v", g, err)
		}
	}
	for _, g := range []float64{1, 1.5, math.Inf(1), math.NaN()} {
		if err := (RecachePolicy{MinGain: g}).Validate(); err == nil {
			t.Errorf("MinGain %g accepted", g)
		}
	}
}

// refAdvise is the advisor's oracle: advise as written before
// Scheduler.PeekCols, each candidate column scored by its own replay of
// the window, one PeekAt per (query, column). It leaves out advise's
// window and cooldown gates (TestRecacheAdvisorRespectsCooldownAndWindow
// covers those).
func refAdvise(rc *recacheState, sys *System, limit int64) (int, bool) {
	schd, tab := sys.Scheduler(), sys.Table()
	if tab.Cols() < 2 || !sys.Simulator().Config().HasPB() {
		return 0, false
	}
	cur := schd.CacheColumn()
	score := func(col int) (windowScore, bool) {
		var s windowScore
		for _, q := range rc.recent[:rc.filled] {
			d, err := schd.PeekAt(q, col)
			if err != nil {
				return s, false
			}
			if !d.Feasible {
				s.infeasible++
			}
			s.latency += d.PredictedLatency
		}
		return s, true
	}
	curScore, ok := score(cur)
	if !ok {
		return 0, false
	}
	bestCol, bestScore := cur, curScore
	for j := 0; j < tab.Cols(); j++ {
		if j == cur || limit > 0 && tab.GraphBytes(j) > limit {
			continue
		}
		if s, ok := score(j); ok && s.better(bestScore) {
			bestCol, bestScore = j, s
		}
	}
	if bestCol == cur {
		return 0, false
	}
	if bestScore.infeasible == curScore.infeasible &&
		bestScore.latency > curScore.latency*(1-rc.pol.MinGain) {
		return 0, false
	}
	return bestCol, true
}

// adviseWindow draws n window queries for model on sys: continuous
// constraints over the table's range, a per-query policy override on
// most, and a NaN floor or budget on one in ten.
func adviseWindow(rng *rand.Rand, sys *System, n int, model string) []sched.Query {
	qs := randomQueries(rng, sys, 0, n, model, nil)
	for i := range qs {
		qs[i].Policy = randomPolicy(rng)
		switch rng.Intn(20) {
		case 0:
			qs[i].MaxLatency = math.NaN()
		case 1:
			qs[i].MinAccuracy = math.NaN()
		}
	}
	return qs
}

// TestAdviseMatchesReference holds advise to refAdvise on randomized
// windows: mixed policies (an invalid one now and then), NaN
// constraints, random window lengths and MinGains, random current
// columns, and share limits that admit every column, exclude some, or
// leave only the current one. A third system's table has two latency
// and two energy levels, both powers of two, so window scores tie
// exactly and the candidate order and the MinGain boundary decide.
// Every evaluation must return the same (column, ok).
func TestAdviseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	solo := newRecacheSystem(t)
	lat := make([][]float64, solo.Table().Rows())
	item, energy := make([][]float64, len(lat)), make([][]float64, len(lat))
	for i := range lat {
		item[i] = make([]float64, solo.Table().Cols())
		for range solo.Table().Cols() {
			lat[i] = append(lat[i], float64(1+rng.Intn(2))/1024)
			energy[i] = append(energy[i], float64(1+rng.Intn(2)))
		}
	}
	tied, err := latencytable.FromMatrices(solo.Table().SubNets, solo.Table().Graphs, lat, item, energy)
	if err != nil {
		t.Fatal(err)
	}
	s, fr := fixtures(t, supernet.MobileNetV3)
	ties, err := New(s, fr, Options{
		Accel: accel.ZCU104(), Policy: sched.StrictLatency, Q: 4, Mode: StateUnaware, Table: tied, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	invalid := sched.Policy(9)
	switched, kept, onlyCur := 0, 0, 0
	for _, sys := range []*System{
		solo,
		newSystem(t, supernet.ResNet50, Full, sched.StrictAccuracy),
		ties,
	} {
		tab := sys.Table()
		for eval := 0; eval < 300; eval++ {
			gain := []float64{0, 0.001, 0.05, 0.3, 0.5}[rng.Intn(5)]
			rc := newRecacheState(RecachePolicy{Window: 1 + rng.Intn(24), MinGain: gain})
			for _, q := range adviseWindow(rng, sys, rc.pol.Window, "") {
				if rng.Intn(100) == 0 {
					q.Policy = &invalid
				}
				rc.observe(q)
			}
			if _, err := sys.Recache(rng.Intn(tab.Cols())); err != nil {
				t.Fatal(err)
			}
			cur := sys.Scheduler().CacheColumn()
			var limit int64
			switch rng.Intn(3) {
			case 1:
				limit = tab.GraphBytes(rng.Intn(tab.Cols()))
			case 2:
				// One byte below every other column's SubGraph.
				limit = math.MaxInt64
				for j := 0; j < tab.Cols(); j++ {
					if j != cur {
						limit = min(limit, tab.GraphBytes(j)-1)
					}
				}
				if limit > 0 {
					onlyCur++
				}
			}
			wantCol, wantOK := refAdvise(rc, sys, limit)
			gotCol, gotOK := rc.advise(sys, limit)
			if gotCol != wantCol || gotOK != wantOK {
				t.Fatalf("eval %d (cur %d, limit %d): advise (%d, %v), reference (%d, %v)",
					eval, cur, limit, gotCol, gotOK, wantCol, wantOK)
			}
			if gotOK {
				switched++
			} else {
				kept++
			}
		}
	}
	if switched == 0 || kept == 0 || onlyCur == 0 {
		t.Errorf("evaluations left a branch untested: %d switched, %d kept, %d with only the current column",
			switched, kept, onlyCur)
	}
}

// TestAdviseAllocs pins a warm advisor evaluation at zero allocations:
// the candidate list, the per-column ratings and the window scores live
// in recacheState.
func TestAdviseAllocs(t *testing.T) {
	sys := newRecacheSystem(t)
	rc := newRecacheState(RecachePolicy{})
	for _, q := range adviseWindow(rand.New(rand.NewSource(3)), sys, rc.pol.Window, "") {
		rc.observe(q)
	}
	eval := func() {
		rc.sinceEval = rc.pol.Cooldown
		rc.advise(sys, 0)
	}
	eval()
	if allocs := testing.AllocsPerRun(100, eval); allocs != 0 {
		t.Errorf("a warm advisor evaluation allocates %.0f times; want 0", allocs)
	}
}

// BenchmarkAdvise times one full advisor evaluation per op for each
// tenant of a two-model (ResNet50 + MobileNetV3) replica under a static
// PB partition: a default 16-query window of mixed policies replayed
// against every column that fits the tenant's share.
func BenchmarkAdvise(b *testing.B) {
	rep := newTenantReplica(b, &PartitionPolicy{Mode: PartitionStatic})
	rng := rand.New(rand.NewSource(29))
	for _, tn := range rep.tenants {
		b.Run(tn.model, func(b *testing.B) {
			rc := newRecacheState(RecachePolicy{})
			for _, q := range adviseWindow(rng, tn.sys, rc.pol.Window, tn.model) {
				rc.observe(q)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rc.sinceEval = rc.pol.Cooldown
				rc.advise(tn.sys, tn.shareBytes)
			}
		})
	}
}

// BenchmarkFastestPick times the fastest router's pick over four
// replicas: one PeekAt per replica against its published cache column,
// on mixed-policy queries. The solo replicas alternate ZCU104 and Alveo
// U50 hardware; the tenants replicas each host two models, and their
// queries name either one, so every score also resolves a tenant.
func BenchmarkFastestPick(b *testing.B) {
	s, fr := fixtures(b, supernet.MobileNetV3)
	solo, tenants := make([]*Replica, 4), make([]*Replica, 4)
	for i := range solo {
		cfg := accel.ZCU104()
		if i%2 == 1 {
			cfg = accel.AlveoU50()
		}
		sys, err := New(s, fr, Options{
			Accel: cfg, Policy: sched.StrictLatency, Q: 4, Mode: Full, Candidates: 12, StaticColumn: i, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		solo[i] = soloReplica(b, i, sys)
		tenants[i] = newTenantReplica(b, nil)
	}
	soloQs := adviseWindow(rand.New(rand.NewSource(29)), solo[0].tenants[0].sys, 1024, "")
	rng := rand.New(rand.NewSource(29))
	var tenantQs []sched.Query
	for _, tn := range tenants[0].tenants {
		tenantQs = append(tenantQs, adviseWindow(rng, tn.sys, 512, tn.model)...)
	}
	rng.Shuffle(len(tenantQs), func(i, j int) { tenantQs[i], tenantQs[j] = tenantQs[j], tenantQs[i] })
	for _, c := range []struct {
		name string
		reps []*Replica
		qs   []sched.Query
	}{{"solo", solo, soloQs}, {"tenants", tenants, tenantQs}} {
		b.Run(c.name, func(b *testing.B) {
			router := NewFastest()
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				router.Pick(c.qs[i%len(c.qs)], c.reps)
			}
		})
	}
}
