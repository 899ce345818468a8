package simq

import (
	"math"
	"reflect"
	"testing"

	"sushi/internal/accel"
	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/supernet"
	"sushi/internal/workload"
)

// fixtures caches the expensive supernet/frontier construction per call.
func fixtures(t testing.TB) (*supernet.SuperNet, []*supernet.SubNet) {
	t.Helper()
	s := supernet.NewOFAMobileNetV3()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	return s, fr
}

func newSystem(t *testing.T, policy sched.Policy) *serving.System {
	t.Helper()
	s, fr := fixtures(t)
	sys, err := serving.New(s, fr, serving.Options{
		Accel:      accel.ZCU104(),
		Policy:     policy,
		Q:          4,
		Mode:       serving.Full,
		Candidates: 12,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// soloReplica wraps one system as a single-model replica: the one
// tenant whose model id is "".
func soloReplica(t testing.TB, id int, sys *serving.System) *serving.Replica {
	t.Helper()
	rep, err := serving.NewMultiReplica(id, []serving.Tenant{{Sys: sys}})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// newReplicas builds R systems over one shared table (the DeployCluster
// shape) and wraps them as replicas.
func newReplicas(t testing.TB, r int) []*serving.Replica {
	t.Helper()
	s, fr := fixtures(t)
	opt := serving.Options{
		Accel:      accel.ZCU104(),
		Policy:     sched.StrictLatency,
		Q:          4,
		Mode:       serving.Full,
		Candidates: 12,
		Seed:       1,
	}
	table, _, err := serving.BuildTable(s, fr, opt)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*serving.Replica, r)
	for i := range reps {
		o := opt
		o.Table = table
		o.StaticColumn = i % table.Cols()
		sys, err := serving.New(s, fr, o)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = soloReplica(t, i, sys)
	}
	return reps
}

// latHi is the slowest SubNet's column-0 latency — the budget scale.
func latHi(sys *serving.System) float64 {
	tab := sys.Table()
	return tab.Lookup(tab.Rows()-1, 0)
}

// timedStream builds a Poisson stream at the given rate with a fixed
// latency budget.
func timedStream(t *testing.T, n int, rate, budget float64) []serving.TimedQuery {
	t.Helper()
	arr, err := workload.Poisson{Rate: rate}.Times(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]serving.TimedQuery, n)
	for i := range qs {
		qs[i] = serving.TimedQuery{
			Query:   sched.Query{ID: i, MaxLatency: budget},
			Arrival: arr[i],
		}
	}
	return qs
}

// soloRun plays qs through a one-replica engine over sys — the shape of
// a single accelerator — and holds the result to the engine's
// invariants.
func soloRun(t *testing.T, sys *serving.System, qs []serving.TimedQuery, opt Options) *Result {
	t.Helper()
	eng, err := New([]*serving.Replica{soloReplica(t, 0, sys)}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return checked(t, eng, qs)
}

func TestServeTimedFIFOInvariants(t *testing.T) {
	sys := newSystem(t, sched.StrictLatency)
	budget := latHi(sys) * 1.1
	res := soloRun(t, sys, timedStream(t, 60, 300, budget), Options{}) // moderate load
	if len(res.Outcomes) != 60 {
		t.Fatalf("%d results", len(res.Outcomes))
	}
	prevFinish := 0.0
	for i := range res.Outcomes {
		r := res.Timed(i)
		if r.Start < r.Arrival-1e-12 {
			t.Fatalf("query %d started before arriving", i)
		}
		if r.Start < prevFinish-1e-12 {
			t.Fatalf("query %d started before the accelerator was free", i)
		}
		if math.Abs(r.QueueDelay-(r.Start-r.Arrival)) > 1e-12 {
			t.Fatalf("query %d queue delay inconsistent", i)
		}
		if math.Abs(r.E2ELatency-(r.Finish-r.Arrival)) > 1e-12 {
			t.Fatalf("query %d e2e inconsistent", i)
		}
		prevFinish = r.Finish
	}
}

func TestServeTimedOverloadBuildsQueue(t *testing.T) {
	sys := newSystem(t, sched.StrictLatency)
	budget := latHi(sys) * 1.1
	// Far beyond capacity: service ~2-6 ms -> capacity ~200-400 qps; feed 5000 qps.
	res := soloRun(t, sys, timedStream(t, 80, 5000, budget), Options{})
	sum := res.Summary
	if sum.AvgQueueDelay <= 0 {
		t.Error("overload produced no queueing delay")
	}
	// Under heavy overload the tail queries must wait many service times.
	if last := res.Timed(len(res.Outcomes) - 1); last.QueueDelay < 5*budget {
		t.Errorf("tail queue delay %.4f s too small for 25x overload", last.QueueDelay)
	}
	if sum.E2ESLO > 0.6 {
		t.Errorf("E2E SLO %.2f implausibly high under overload", sum.E2ESLO)
	}
}

func TestServeTimedLoadAwareBeatsStatic(t *testing.T) {
	// §1's motivating claim: under transient overload, a static
	// high-accuracy choice misses deadlines/drops queries, while
	// navigating the trade-off space (load-aware SUSHI) keeps serving.
	_, fr := fixtures(t)
	mk := func() *serving.System { return newSystem(t, sched.StrictLatency) }
	sys := mk()
	budget := latHi(sys) * 1.1
	qs := timedStream(t, 100, 450, budget) // ~2-3x capacity of the largest SubNet
	// Static: every query demands the top SubNet (MinAccuracy at max) —
	// the "single static point" the paper argues against.
	static := make([]serving.TimedQuery, len(qs))
	copy(static, qs)
	for i := range static {
		static[i].MinAccuracy = fr[len(fr)-1].Accuracy
		static[i].MaxLatency = budget
	}
	st := soloRun(t, mk(), static, Options{Drop: true}).Summary
	ad := soloRun(t, mk(), qs, Options{Drop: true, LoadAware: true}).Summary
	t.Logf("static-top: SLO %.2f drops %d | load-aware: SLO %.2f drops %d",
		st.E2ESLO, st.Dropped, ad.E2ESLO, ad.Dropped)
	if ad.E2ESLO <= st.E2ESLO {
		t.Errorf("load-aware SLO %.2f !> static-top SLO %.2f", ad.E2ESLO, st.E2ESLO)
	}
	if ad.Dropped >= st.Dropped && st.Dropped > 0 {
		t.Errorf("load-aware dropped %d !< static-top %d", ad.Dropped, st.Dropped)
	}
}

func TestServeTimedDropSemantics(t *testing.T) {
	sys := newSystem(t, sched.StrictLatency)
	// Two queries arriving together with a budget smaller than one
	// service: the second must be dropped when Drop is on.
	budget := sys.Table().Lookup(0, 0) * 0.5
	qs := []serving.TimedQuery{
		{Query: sched.Query{ID: 0, MaxLatency: budget}, Arrival: 0},
		{Query: sched.Query{ID: 1, MaxLatency: budget}, Arrival: 0},
	}
	res := soloRun(t, sys, qs, Options{Drop: true})
	if res.Timed(0).Dropped {
		t.Error("first query dropped")
	}
	if !res.Timed(1).Dropped {
		t.Error("second query not dropped despite exhausted budget")
	}
	if res.Summary.Dropped != 1 || res.Served != 1 {
		t.Errorf("summary %+v, served %d", res.Summary, res.Served)
	}
}

// TestValidationHasNoSideEffects pins the hoisted-validation bugfix: a
// negative arrival anywhere in the stream must fail before ANY query is
// served, leaving scheduler and cache state untouched (the old
// single-system timed loop validated mid-loop, after mutating cache
// state for earlier queries).
func TestValidationHasNoSideEffects(t *testing.T) {
	sys := newSystem(t, sched.StrictLatency)
	budget := latHi(sys)
	eng, err := New([]*serving.Replica{soloReplica(t, 0, sys)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	qs := []serving.TimedQuery{
		{Query: sched.Query{ID: 0, MaxLatency: budget}, Arrival: 0},
		{Query: sched.Query{ID: 1, MaxLatency: budget}, Arrival: 0.01},
		{Query: sched.Query{ID: 2, MaxLatency: budget}, Arrival: -1}, // invalid, late in stream
	}
	if _, err := eng.Run(qs); err == nil {
		t.Fatal("negative arrival accepted")
	}
	if n := sys.Scheduler().Served(); n != 0 {
		t.Errorf("%d queries served before validation failed (side effects!)", n)
	}
	if _, err := eng.Run([]serving.TimedQuery{{Arrival: math.NaN()}}); err == nil {
		t.Error("NaN arrival accepted")
	}
	// A +Inf arrival would end the event loop with the query forever
	// pending yet counted as served.
	if _, err := eng.Run([]serving.TimedQuery{{Arrival: math.Inf(1)}}); err == nil {
		t.Error("+Inf arrival accepted")
	}
}

// clusterRun plays one Poisson stream through a fresh 2-replica cluster
// and returns the result.
func clusterRun(t *testing.T, adm Admission, queueCap, n int, rateFactor float64) *Result {
	t.Helper()
	reps := newReplicas(t, 2)
	var budget float64
	reps[0].Inspect(func(sys *serving.System) { budget = latHi(sys) * 1.1 })
	capacity := float64(len(reps)) / budget
	eng, err := New(reps, Options{
		QueueCap:  queueCap,
		Admission: adm,
		LoadAware: true,
		Drop:      true,
		Router:    serving.NewLeastLoaded(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return checked(t, eng, timedStream(t, n, capacity*rateFactor, budget))
}

// checked runs qs through eng and holds the result to the engine's
// invariants (Result.Check).
func checked(t *testing.T, eng *Engine, qs []serving.TimedQuery) *Result {
	t.Helper()
	res, err := eng.Run(qs)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterOpenLoopDeterminism: identical seeds over fresh deployments
// produce bit-identical outcome streams, for every admission policy.
func TestClusterOpenLoopDeterminism(t *testing.T) {
	for _, adm := range []Admission{Reject, ShedOldest, Degrade} {
		a := clusterRun(t, adm, 3, 120, 2.5)
		b := clusterRun(t, adm, 3, 120, 2.5)
		if len(a.Outcomes) != len(b.Outcomes) {
			t.Fatalf("%v: outcome counts differ", adm)
		}
		for i := range a.Outcomes {
			if x, y := a.Outcomes[i], b.Outcomes[i]; !sameRecord(a, b, i) {
				t.Fatalf("%v: outcome %d differs:\n%+v %+v\n%+v %+v", adm, i, x, a.Service(i), y, b.Service(i))
			}
		}
		if !reflect.DeepEqual(a.Summary, b.Summary) {
			t.Errorf("%v: summaries differ", adm)
		}
	}
}

// TestClusterLoadMonotonicity is the acceptance criterion: as offered
// load crosses aggregate service capacity, p99 E2E latency degrades
// monotonically and SLO attainment falls.
func TestClusterLoadMonotonicity(t *testing.T) {
	factors := []float64{0.3, 1.0, 3.0}
	var p99s, slos []float64
	for _, f := range factors {
		// Unbounded queue, no drops, no load-aware downgrade: pure
		// queueing pressure, so tails must grow with offered load.
		reps := newReplicas(t, 2)
		var budget float64
		reps[0].Inspect(func(sys *serving.System) { budget = latHi(sys) * 1.1 })
		capacity := float64(len(reps)) / budget
		eng, err := New(reps, Options{Router: serving.NewLeastLoaded()})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(timedStream(t, 150, capacity*f, budget))
		if err != nil {
			t.Fatal(err)
		}
		p99s = append(p99s, res.Summary.P99E2E)
		slos = append(slos, res.Summary.E2ESLO)
		t.Logf("load %.1fx capacity: p99 E2E %.2f ms, SLO %.2f, goodput %.0f qps",
			f, res.Summary.P99E2E*1e3, res.Summary.E2ESLO, res.Summary.Goodput)
	}
	for i := 1; i < len(factors); i++ {
		if p99s[i] < p99s[i-1] {
			t.Errorf("p99 E2E not monotone: %.4f at %.1fx < %.4f at %.1fx",
				p99s[i], factors[i], p99s[i-1], factors[i-1])
		}
		if slos[i] > slos[i-1] {
			t.Errorf("SLO not degrading: %.2f at %.1fx > %.2f at %.1fx",
				slos[i], factors[i], slos[i-1], factors[i-1])
		}
	}
	// The extremes must actually separate (below capacity ≈ healthy,
	// far above ≈ saturated).
	if slos[0] < 0.9 {
		t.Errorf("SLO %.2f below capacity, want near 1", slos[0])
	}
	if slos[2] > 0.7 {
		t.Errorf("SLO %.2f at 3x capacity, want visible degradation", slos[2])
	}
}

// TestAdmissionPolicies exercises the bounded queue under sustained
// overload: reject refuses at the door, shed-oldest evicts the stalest
// queued query, degrade keeps everyone but downgrades accuracy.
func TestAdmissionPolicies(t *testing.T) {
	rej := clusterRun(t, Reject, 2, 150, 4)
	if rej.Rejected == 0 {
		t.Error("reject policy rejected nothing under 4x overload")
	}
	if rej.Shed != 0 || rej.Degraded != 0 {
		t.Errorf("reject policy leaked shed=%d degraded=%d", rej.Shed, rej.Degraded)
	}
	// Bounded queue: no served query can have waited more than
	// (QueueCap+1) service times of the slowest SubNet.
	shed := clusterRun(t, ShedOldest, 2, 150, 4)
	if shed.Shed == 0 {
		t.Error("shed-oldest policy shed nothing under 4x overload")
	}
	if shed.Rejected != 0 {
		t.Errorf("shed-oldest policy rejected %d", shed.Rejected)
	}
	deg := clusterRun(t, Degrade, 2, 150, 4)
	if deg.Degraded == 0 {
		t.Error("degrade policy degraded nothing under 4x overload")
	}
	if deg.Rejected != 0 || deg.Shed != 0 {
		t.Errorf("degrade policy dropped at admission: %+v", deg)
	}
	// Degrade keeps goodput at or above reject's served-within-SLO rate
	// by serving cheaper SubNets instead of refusing.
	if deg.Served < rej.Served {
		t.Errorf("degrade served %d < reject %d", deg.Served, rej.Served)
	}
	// Every outcome is accounted for exactly once.
	for name, r := range map[string]*Result{"reject": rej, "shed": shed, "degrade": deg} {
		if r.Served+r.Dropped != r.Queries {
			t.Errorf("%s: served %d + dropped %d != %d", name, r.Served, r.Dropped, r.Queries)
		}
		if r.DeadlineDrops+r.Rejected+r.Shed != r.Dropped {
			t.Errorf("%s: drop reasons don't sum: %+v", name, r)
		}
		if r.Summary.Dropped != r.Dropped {
			t.Errorf("%s: summary drop count %d != %d", name, r.Summary.Dropped, r.Dropped)
		}
	}
}

// TestVirtualDepthRouting: the least-loaded router must see the virtual
// queue depth and spread sustained overload across both replicas.
func TestVirtualDepthRouting(t *testing.T) {
	res := clusterRun(t, Reject, 8, 120, 3)
	if res.ReplicaQueries[0] == 0 || res.ReplicaQueries[1] == 0 {
		t.Fatalf("least-loaded routing starved a replica: %v", res.ReplicaQueries)
	}
	ratio := float64(res.ReplicaQueries[0]) / float64(res.ReplicaQueries[1])
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("replica load imbalance %v under least-loaded routing", res.ReplicaQueries)
	}
}

func TestEngineOptionValidation(t *testing.T) {
	reps := newReplicas(t, 1)
	if _, err := New(nil, Options{}); err == nil {
		t.Error("empty replica set accepted")
	}
	if _, err := New([]*serving.Replica{nil}, Options{}); err == nil {
		t.Error("nil replica accepted")
	}
	if _, err := New(reps, Options{QueueCap: -1}); err == nil {
		t.Error("negative queue cap accepted")
	}
	if _, err := New(reps, Options{Admission: Admission(9)}); err == nil {
		t.Error("bogus admission accepted")
	}
	if _, err := FromCluster(nil, Options{}); err == nil {
		t.Error("nil cluster accepted")
	}
	// Empty stream: no error, empty result.
	eng, err := New(reps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 0 || len(res.Outcomes) != 0 {
		t.Errorf("empty run produced %+v", res)
	}
}

func TestStreamHelper(t *testing.T) {
	qs := []sched.Query{{ID: 0}, {ID: 1}}
	arr := []float64{0.1, 0.2}
	ts, err := Stream(qs, arr)
	if err != nil {
		t.Fatal(err)
	}
	if ts[1].Arrival != 0.2 || ts[1].ID != 1 {
		t.Errorf("stream misaligned: %+v", ts[1])
	}
	if _, err := Stream(qs, arr[:1]); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestParseAdmission(t *testing.T) {
	for name, want := range map[string]Admission{
		"": Reject, "reject": Reject, "shed": ShedOldest,
		"shed-oldest": ShedOldest, "degrade": Degrade,
	} {
		got, err := ParseAdmission(name)
		if err != nil || got != want {
			t.Errorf("ParseAdmission(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseAdmission("lifo"); err == nil {
		t.Error("bogus admission accepted")
	}
}
