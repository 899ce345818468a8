package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sushi/internal/accel"
	"sushi/internal/latencytable"
	"sushi/internal/supernet"
)

func buildTable(t testing.TB) *latencytable.Table {
	t.Helper()
	s := supernet.NewOFAMobileNetV3()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	cfg := accel.ZCU104()
	cands, err := latencytable.Candidates(s, fr, latencytable.CandidateOptions{
		Budget: cfg.PBBytes, Count: 16, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := latencytable.Build(cfg, fr, cands)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestNewValidation(t *testing.T) {
	tab := buildTable(t)
	cases := []Options{
		{Policy: StrictAccuracy, Q: 0, StateAware: true},
		{Policy: StrictAccuracy, Q: 4, InitialColumn: -1, StateAware: true},
		{Policy: StrictAccuracy, Q: 4, InitialColumn: tab.Cols(), StateAware: true},
		{Policy: Policy(99), Q: 4, StateAware: true},
	}
	for i, opt := range cases {
		if _, err := New(tab, opt); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
	if _, err := New(nil, Options{Policy: StrictAccuracy, Q: 4}); err == nil {
		t.Error("nil table accepted")
	}
}

func TestStrictAccuracySelection(t *testing.T) {
	tab := buildTable(t)
	s, err := New(tab, Options{Policy: StrictAccuracy, Q: 4, StateAware: true})
	if err != nil {
		t.Fatal(err)
	}
	// Constraint between frontier accuracies: served accuracy must be >=
	// the constraint, and the choice must be the fastest such SubNet.
	at := tab.SubNets[2].Accuracy
	d, err := s.Schedule(Query{ID: 0, MinAccuracy: at, MaxLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Feasible {
		t.Fatal("feasible constraint reported infeasible")
	}
	if d.PredictedAccuracy < at {
		t.Errorf("served accuracy %.2f < constraint %.2f", d.PredictedAccuracy, at)
	}
	for i := 0; i < tab.Rows(); i++ {
		if tab.SubNets[i].Accuracy >= at && tab.Lookup(i, s.CacheColumn()) < d.PredictedLatency {
			t.Errorf("subnet %d (%.4g s) beats served %.4g s under same constraint",
				i, tab.Lookup(i, s.CacheColumn()), d.PredictedLatency)
		}
	}
}

func TestStrictAccuracyInfeasibleFallsBack(t *testing.T) {
	tab := buildTable(t)
	s, err := New(tab, Options{Policy: StrictAccuracy, Q: 4, StateAware: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Schedule(Query{ID: 0, MinAccuracy: 99.9})
	if err != nil {
		t.Fatal(err)
	}
	if d.Feasible {
		t.Error("unsatisfiable accuracy reported feasible")
	}
	// Fallback is the most accurate SubNet.
	best := 0
	for i := range tab.SubNets {
		if tab.SubNets[i].Accuracy > tab.SubNets[best].Accuracy {
			best = i
		}
	}
	if d.SubNet != best {
		t.Errorf("fallback served %d, want most-accurate %d", d.SubNet, best)
	}
}

func TestStrictLatencySelection(t *testing.T) {
	tab := buildTable(t)
	s, err := New(tab, Options{Policy: StrictLatency, Q: 4, StateAware: true})
	if err != nil {
		t.Fatal(err)
	}
	// Constraint set to the median SubNet's latency: the served SubNet
	// must fit and be the most accurate that fits.
	lt := tab.Lookup(3, 0)
	d, err := s.Schedule(Query{ID: 0, MaxLatency: lt})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Feasible {
		t.Fatal("feasible latency constraint reported infeasible")
	}
	if d.PredictedLatency > lt {
		t.Errorf("served latency %.4g > constraint %.4g", d.PredictedLatency, lt)
	}
	for i := 0; i < tab.Rows(); i++ {
		if tab.Lookup(i, s.CacheColumn()) <= lt && tab.SubNets[i].Accuracy > d.PredictedAccuracy {
			t.Errorf("subnet %d more accurate and still feasible", i)
		}
	}
}

func TestStrictLatencyInfeasibleFallsBack(t *testing.T) {
	tab := buildTable(t)
	s, err := New(tab, Options{Policy: StrictLatency, Q: 4, StateAware: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Schedule(Query{ID: 0, MaxLatency: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if d.Feasible {
		t.Error("unsatisfiable latency reported feasible")
	}
	// Fallback is the fastest SubNet under the current cache state.
	for i := range tab.SubNets {
		if tab.Lookup(i, 0) < d.PredictedLatency {
			t.Errorf("fallback %d slower than subnet %d", d.SubNet, i)
		}
	}
}

func TestCacheUpdateEveryQ(t *testing.T) {
	tab := buildTable(t)
	const q = 4
	s, err := New(tab, Options{Policy: StrictLatency, Q: q, StateAware: true})
	if err != nil {
		t.Fatal(err)
	}
	updates := 0
	for i := 0; i < 20; i++ {
		d, err := s.Schedule(Query{ID: i, MaxLatency: tab.Lookup(5, 0)})
		if err != nil {
			t.Fatal(err)
		}
		if d.CacheUpdate >= 0 {
			updates++
			if (i+1)%q != 0 {
				t.Errorf("cache update at query %d, not a multiple of Q=%d", i+1, q)
			}
			if d.CacheUpdate != s.CacheColumn() {
				t.Error("decision column differs from scheduler state")
			}
		}
	}
	if updates == 0 {
		t.Error("no cache updates in 20 queries with Q=4")
	}
}

func TestCacheConvergesToServedSubNet(t *testing.T) {
	// Serving the same SubNet repeatedly must steer the cache toward a
	// SubGraph close to that SubNet (temporal locality exploitation).
	tab := buildTable(t)
	s, err := New(tab, Options{Policy: StrictAccuracy, Q: 4, StateAware: true})
	if err != nil {
		t.Fatal(err)
	}
	target := tab.Rows() - 1 // most accurate subnet
	at := tab.SubNets[target].Accuracy
	for i := 0; i < 12; i++ {
		if _, err := s.Schedule(Query{ID: i, MinAccuracy: at}); err != nil {
			t.Fatal(err)
		}
	}
	// The converged cache column must be the candidate nearest to the
	// served SubNet's own vector.
	want := tab.NearestGraph(tab.SubNets[target].Vector())
	if s.CacheColumn() != want {
		t.Errorf("cache column %d (%s), want %d (%s)",
			s.CacheColumn(), tab.Graphs[s.CacheColumn()].Name(), want, tab.Graphs[want].Name())
	}
}

func TestStateUnawareNeverUpdates(t *testing.T) {
	tab := buildTable(t)
	s, err := New(tab, Options{Policy: StrictLatency, Q: 2, InitialColumn: 3, StateAware: false})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		d, err := s.Schedule(Query{ID: i, MaxLatency: 1})
		if err != nil {
			t.Fatal(err)
		}
		if d.CacheUpdate != -1 {
			t.Fatal("state-unaware scheduler emitted a cache update")
		}
	}
	if s.CacheColumn() != 3 {
		t.Errorf("state-unaware cache column drifted to %d", s.CacheColumn())
	}
}

func TestAvgNetWindow(t *testing.T) {
	tab := buildTable(t)
	const q = 3
	s, err := New(tab, Options{Policy: StrictAccuracy, Q: q, StateAware: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.AvgNet() != nil {
		t.Error("AvgNet non-nil before any query")
	}
	// Serve subnet 0 q times: average equals its vector exactly.
	a0 := tab.SubNets[0].Accuracy
	for i := 0; i < q; i++ {
		if _, err := s.Schedule(Query{ID: i, MinAccuracy: a0 - 1}); err != nil {
			t.Fatal(err)
		}
	}
	avg := s.AvgNet()
	v0 := tab.SubNets[0].Vector()
	for i := range v0 {
		if avg[i] != v0[i] {
			t.Fatalf("avg[%d] = %g, want %g (pure window)", i, avg[i], v0[i])
		}
	}
	// Mutating the returned slice must not affect the scheduler.
	avg[0] = 1e9
	if got := s.AvgNet()[0]; got == 1e9 {
		t.Error("AvgNet returned internal state")
	}
}

func TestServedCounter(t *testing.T) {
	tab := buildTable(t)
	s, err := New(tab, Options{Policy: StrictLatency, Q: 5, StateAware: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := s.Schedule(Query{ID: i, MaxLatency: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Served() != 7 {
		t.Errorf("served = %d, want 7", s.Served())
	}
}

func TestPolicyString(t *testing.T) {
	if StrictAccuracy.String() != "STRICT_ACCURACY" || StrictLatency.String() != "STRICT_LATENCY" {
		t.Error("policy strings wrong")
	}
}

func TestIntersectionPredictor(t *testing.T) {
	tab := buildTable(t)
	s, err := New(tab, Options{Policy: StrictAccuracy, Q: 3, StateAware: true, UseIntersection: true})
	if err != nil {
		t.Fatal(err)
	}
	// Serve the smallest then the largest SubNet: the intersection
	// summary must equal the elementwise minimum of their vectors.
	a0 := tab.SubNets[0].Accuracy
	aTop := tab.SubNets[tab.Rows()-1].Accuracy
	if _, err := s.Schedule(Query{ID: 0, MinAccuracy: a0 - 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Schedule(Query{ID: 1, MinAccuracy: aTop}); err != nil {
		t.Fatal(err)
	}
	avg := s.AvgNet()
	v0 := tab.SubNets[0].Vector()
	vT := tab.SubNets[tab.Rows()-1].Vector()
	for i := range avg {
		want := v0[i]
		if vT[i] < want {
			want = vT[i]
		}
		if avg[i] != want {
			t.Fatalf("intersection[%d] = %g, want min(%g, %g)", i, avg[i], v0[i], vT[i])
		}
	}
}

func TestIntersectionVsAverageDiffer(t *testing.T) {
	// After a mixed window the two summaries must differ (averaging keeps
	// the frequent-but-not-universal information, §3.3).
	tab := buildTable(t)
	run := func(useInter bool) []float64 {
		s, err := New(tab, Options{Policy: StrictAccuracy, Q: 4, StateAware: true, UseIntersection: useInter})
		if err != nil {
			t.Fatal(err)
		}
		accs := []float64{
			tab.SubNets[0].Accuracy - 1,
			tab.SubNets[tab.Rows()-1].Accuracy,
			tab.SubNets[0].Accuracy - 1,
			tab.SubNets[tab.Rows()-1].Accuracy,
		}
		for i, a := range accs {
			if _, err := s.Schedule(Query{ID: i, MinAccuracy: a}); err != nil {
				t.Fatal(err)
			}
		}
		return s.AvgNet()
	}
	avg := run(false)
	inter := run(true)
	same := true
	for i := range avg {
		if avg[i] != inter[i] {
			same = false
		}
		if inter[i] > avg[i] {
			t.Fatalf("intersection[%d]=%g exceeds average %g (min must bound mean)", i, inter[i], avg[i])
		}
	}
	if same {
		t.Fatal("average and intersection identical after a mixed window")
	}
}

func TestMinEnergyPolicy(t *testing.T) {
	tab := buildTable(t)
	s, err := New(tab, Options{Policy: MinEnergy, Q: 4, StateAware: true})
	if err != nil {
		t.Fatal(err)
	}
	// Generous constraints: both satisfiable; served SubNet must have the
	// lowest energy among those meeting both.
	at := tab.SubNets[1].Accuracy
	lt := tab.Lookup(tab.Rows()-1, 0) * 1.1
	d, err := s.Schedule(Query{ID: 0, MinAccuracy: at, MaxLatency: lt})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Feasible {
		t.Fatal("feasible double constraint reported infeasible")
	}
	col := 0 // initial column
	for i := 0; i < tab.Rows(); i++ {
		if tab.SubNets[i].Accuracy < at || tab.Lookup(i, col) > lt {
			continue
		}
		if tab.Energy[i][col] < tab.Energy[d.SubNet][col] {
			t.Errorf("subnet %d has lower energy (%.3g < %.3g) and meets both constraints",
				i, tab.Energy[i][col], tab.Energy[d.SubNet][col])
		}
	}
	if tab.SubNets[d.SubNet].Accuracy < at {
		t.Error("energy policy violated the accuracy floor")
	}
}

func TestMinEnergyFallsBackToAccuracy(t *testing.T) {
	tab := buildTable(t)
	s, err := New(tab, Options{Policy: MinEnergy, Q: 4, StateAware: true})
	if err != nil {
		t.Fatal(err)
	}
	// Impossible latency: fallback keeps the accuracy floor, serving the
	// fastest SubNet that meets it.
	at := tab.SubNets[3].Accuracy
	d, err := s.Schedule(Query{ID: 0, MinAccuracy: at, MaxLatency: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if d.Feasible {
		t.Error("impossible latency reported feasible")
	}
	if tab.SubNets[d.SubNet].Accuracy < at {
		t.Error("fallback dropped the accuracy floor")
	}
	// Impossible both: serve the most accurate.
	d2, err := s.Schedule(Query{ID: 1, MinAccuracy: 99.9, MaxLatency: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for i := range tab.SubNets {
		if tab.SubNets[i].Accuracy > tab.SubNets[best].Accuracy {
			best = i
		}
	}
	if d2.SubNet != best {
		t.Errorf("double-infeasible fallback served %d, want %d", d2.SubNet, best)
	}
}

func TestMinEnergyString(t *testing.T) {
	if MinEnergy.String() != "MIN_ENERGY" {
		t.Error("MinEnergy string wrong")
	}
}

func TestScheduleInvariantsQuick(t *testing.T) {
	// Property: for any random constraint stream, every feasible decision
	// satisfies its policy's hard constraint, and the predicted latency
	// always matches the table at the decision's column.
	tab := buildTable(t)
	accLo := tab.SubNets[0].Accuracy
	accHi := tab.SubNets[tab.Rows()-1].Accuracy
	latLo := tab.Lookup(0, 0)
	latHi := tab.Lookup(tab.Rows()-1, 0)
	f := func(seed int64, policyRaw bool) bool {
		policy := StrictAccuracy
		if policyRaw {
			policy = StrictLatency
		}
		s, err := New(tab, Options{Policy: policy, Q: 3, StateAware: true})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 25; i++ {
			col := s.CacheColumn()
			q := Query{
				ID:          i,
				MinAccuracy: accLo + rng.Float64()*(accHi-accLo),
				MaxLatency:  latLo + rng.Float64()*(latHi-latLo),
			}
			d, err := s.Schedule(q)
			if err != nil {
				return false
			}
			if d.PredictedLatency != tab.Lookup(d.SubNet, col) {
				return false
			}
			if d.Feasible {
				if policy == StrictAccuracy && d.PredictedAccuracy < q.MinAccuracy {
					return false
				}
				if policy == StrictLatency && d.PredictedLatency > q.MaxLatency {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPeekDoesNotMutate(t *testing.T) {
	tab := buildTable(t)
	s, err := New(tab, Options{Policy: StrictAccuracy, Q: 2, StateAware: true})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{ID: 0, MinAccuracy: tab.SubNets[3].Accuracy, MaxLatency: 1}
	peek, err := s.PeekAt(q, s.CacheColumn())
	if err != nil {
		t.Fatal(err)
	}
	if s.Served() != 0 || s.AvgNet() != nil {
		t.Fatal("PeekAt consumed the query")
	}
	// Peeking many times never advances the cache belief.
	col := s.CacheColumn()
	for i := 0; i < 10; i++ {
		if _, err := s.PeekAt(q, s.CacheColumn()); err != nil {
			t.Fatal(err)
		}
	}
	if s.CacheColumn() != col {
		t.Error("PeekAt moved the cache column")
	}
	// The real decision for the same query matches the peek.
	d, err := s.Schedule(q)
	if err != nil {
		t.Fatal(err)
	}
	if d.SubNet != peek.SubNet || d.PredictedLatency != peek.PredictedLatency {
		t.Errorf("Schedule %+v diverged from PeekAt %+v", d, peek)
	}
}

func TestPerQueryPolicyOverride(t *testing.T) {
	tab := buildTable(t)
	s, err := New(tab, Options{Policy: StrictAccuracy, Q: 4, StateAware: true})
	if err != nil {
		t.Fatal(err)
	}
	// A generous latency budget under StrictLatency selects the most
	// accurate SubNet, regardless of MinAccuracy — observable only if the
	// override is honoured.
	lat := StrictLatency
	d, err := s.Schedule(Query{ID: 0, MinAccuracy: 0, MaxLatency: 1, Policy: &lat})
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for i := range tab.SubNets {
		if tab.SubNets[i].Accuracy > tab.SubNets[best].Accuracy {
			best = i
		}
	}
	if d.SubNet != best {
		t.Errorf("StrictLatency override served %d, want argmax-accuracy %d", d.SubNet, best)
	}
	// Without the override the default StrictAccuracy picks the fastest
	// SubNet meeting the (trivial) accuracy floor.
	d2, err := s.Schedule(Query{ID: 1, MinAccuracy: 0, MaxLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d2.SubNet == best {
		t.Error("default policy ignored (served the most accurate SubNet)")
	}
	// An out-of-range override is rejected.
	bad := Policy(42)
	if _, err := s.Schedule(Query{ID: 2, Policy: &bad}); err == nil {
		t.Error("bogus per-query policy accepted")
	}
	if _, err := s.PeekAt(Query{ID: 3, Policy: &bad}, s.CacheColumn()); err == nil {
		t.Error("bogus per-query policy accepted by PeekAt")
	}
}

func TestQueryDebit(t *testing.T) {
	q := Query{ID: 1, MinAccuracy: 75, MaxLatency: 10e-3}
	d := q.Debit(4e-3)
	if d.MaxLatency != 6e-3 {
		t.Errorf("debited budget %g, want 6e-3", d.MaxLatency)
	}
	if d.ID != q.ID || d.MinAccuracy != q.MinAccuracy {
		t.Errorf("debit mutated identity/accuracy: %+v", d)
	}
	if q.MaxLatency != 10e-3 {
		t.Error("Debit mutated the receiver")
	}
	// Overdrawn budgets clamp to zero, never negative.
	if d := q.Debit(20e-3); d.MaxLatency != 0 {
		t.Errorf("overdrawn budget %g, want 0", d.MaxLatency)
	}
	// Unconstrained queries cannot run out of budget.
	free := Query{ID: 2}
	if d := free.Debit(5); d.MaxLatency != 0 {
		t.Errorf("unconstrained query debited to %g", d.MaxLatency)
	}
	// Negative waits (clock skew) are ignored.
	if d := q.Debit(-1); d.MaxLatency != q.MaxLatency {
		t.Errorf("negative wait changed budget to %g", d.MaxLatency)
	}
}

// TestScheduleBatchSingletonIdentical: a batch of one must make exactly
// the decision (and the same state mutation) Schedule makes — the
// bit-identity anchor the simq engine's B=1 path relies on.
func TestScheduleBatchSingletonIdentical(t *testing.T) {
	tab := buildTable(t)
	mk := func() *Scheduler {
		s, err := New(tab, Options{Policy: StrictLatency, Q: 3, StateAware: true})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		q := Query{ID: i, MaxLatency: tab.Lookup(rng.Intn(tab.Rows()), 0) * (0.8 + rng.Float64())}
		da, err := a.Schedule(q)
		if err != nil {
			t.Fatal(err)
		}
		db, err := b.ScheduleBatch([]Query{q})
		if err != nil {
			t.Fatal(err)
		}
		if da != db {
			t.Fatalf("query %d: Schedule %+v != ScheduleBatch %+v", i, da, db)
		}
		if a.CacheColumn() != b.CacheColumn() || a.Served() != b.Served() {
			t.Fatalf("query %d: scheduler state diverged", i)
		}
	}
}

// TestScheduleBatchTightestMember: the batched decision must honour the
// tightest member constraints with the BATCHED latency model — a batch
// whose members individually afford a large SubNet may have to drop to
// a smaller one, because n members share one pass.
func TestScheduleBatchTightestMember(t *testing.T) {
	tab := buildTable(t)
	// Not state-aware, so every decision below is made against col.
	s, err := New(tab, Options{Policy: StrictLatency, Q: 4})
	if err != nil {
		t.Fatal(err)
	}
	col := s.CacheColumn()
	top := tab.Rows() - 1
	// A budget that fits the top SubNet solo but not a batch of 8.
	budget := tab.Lookup(top, col) * 1.05
	qs := make([]Query, 8)
	for i := range qs {
		qs[i] = Query{ID: i, MaxLatency: budget}
	}
	solo, err := s.ScheduleBatch(qs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if solo.SubNet != top || !solo.Feasible {
		t.Fatalf("batch of one picked %d (feasible=%v), want top %d", solo.SubNet, solo.Feasible, top)
	}
	batched, err := s.ScheduleBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if batched.Feasible {
		if batched.SubNet >= top {
			t.Errorf("batch of 8 still picked row %d; batched latency should forbid the top SubNet", batched.SubNet)
		}
		if batched.PredictedLatency > budget {
			t.Errorf("feasible batch predicted %g > budget %g", batched.PredictedLatency, budget)
		}
	}
	if got, want := batched.PredictedLatency, tab.LookupBatch(batched.SubNet, col, 8); got != want {
		t.Errorf("batch PredictedLatency %g != LookupBatch %g", got, want)
	}
	// Tightest member: one strict member tightens the whole batch.
	mixed := make([]Query, 4)
	for i := range mixed {
		mixed[i] = Query{ID: i, MaxLatency: budget * 100}
	}
	mixed[2].MaxLatency = tab.LookupBatch(0, col, 4) * 1.01 // only the smallest SubNet fits
	d, err := s.ScheduleBatch(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if d.Feasible && d.PredictedLatency > mixed[2].MaxLatency {
		t.Errorf("batch ignored its tightest member: predicted %g > %g", d.PredictedLatency, mixed[2].MaxLatency)
	}
}

// TestScheduleBatchMixedPolicies: members with different effective
// policies cannot share a pass.
func TestScheduleBatchMixedPolicies(t *testing.T) {
	tab := buildTable(t)
	s, err := New(tab, Options{Policy: StrictLatency, Q: 4})
	if err != nil {
		t.Fatal(err)
	}
	acc := StrictAccuracy
	qs := []Query{{ID: 0, MaxLatency: 1}, {ID: 1, MaxLatency: 1, Policy: &acc}}
	if _, err := s.ScheduleBatch(qs); err == nil {
		t.Error("mixed-policy batch accepted")
	}
	if _, err := s.ScheduleBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if s.Served() != 0 {
		t.Errorf("failed batch consumed %d queries", s.Served())
	}
}

// TestScheduleBatchCountsMembers: a batch of n advances the Q-periodic
// cache window by n queries, exactly as n sequential serves of the same
// SubNet would.
func TestScheduleBatchCountsMembers(t *testing.T) {
	tab := buildTable(t)
	s, err := New(tab, Options{Policy: StrictAccuracy, Q: 4, StateAware: true})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]Query, 6)
	for i := range qs {
		qs[i] = Query{ID: i, MinAccuracy: tab.SubNets[tab.Rows()-1].Accuracy}
	}
	d, err := s.ScheduleBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Served() != 6 {
		t.Errorf("batch of 6 counted as %d served", s.Served())
	}
	// 6 observations of the top SubNet cross the Q=4 boundary once; the
	// window is pure top-SubNet, so the update targets its nearest graph.
	if d.CacheUpdate < 0 {
		t.Error("batch crossing a Q boundary emitted no cache update")
	}
	if d.CacheUpdate >= 0 && d.CacheUpdate != s.CacheColumn() {
		t.Errorf("decision column %d != scheduler belief %d", d.CacheUpdate, s.CacheColumn())
	}
}

// AvgNet returns a copy of the current running-average vector (nil until
// the first query). The average is materialized lazily, so AvgNet — like
// every method other than PeekAt — must be serialized with Schedule.
func (s *Scheduler) AvgNet() []float64 {
	if s.filled == 0 {
		return nil
	}
	s.refreshAvg()
	out := make([]float64, len(s.avg))
	copy(out, s.avg)
	return out
}
