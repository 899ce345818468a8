package sushi

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"sushi/internal/core"
)

func testCluster(t *testing.T, r int, router RouterKind) *Cluster {
	t.Helper()
	c, err := NewCluster(Options{Workload: MobileNetV3, Policy: StrictLatency},
		WithReplicas(r), WithRouter(router))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewClusterDefaults(t *testing.T) {
	c, err := NewCluster(Options{Workload: MobileNetV3})
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 1 || c.Router() != "round-robin" {
		t.Fatalf("defaults: %d replicas, router %s", c.Size(), c.Router())
	}
	if _, err := NewCluster(Options{}, WithRouter("telepathy")); err == nil {
		t.Error("bogus router accepted")
	}
	var oe *core.OptionError
	if _, err := NewCluster(Options{}, WithReplicas(-1)); !errors.As(err, &oe) {
		t.Errorf("negative replicas: got %v, want *core.OptionError", err)
	}
}

func TestClusterServeAllAcrossReplicas(t *testing.T) {
	c := testCluster(t, 4, RoundRobin)
	qs, err := UniformWorkload(40, Range{Lo: 76, Hi: 80}, Range{Lo: 2e-3, Hi: 8e-3}, 11)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.ServeAll(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 40 {
		t.Fatalf("served %d", len(rs))
	}
	reps := c.Replicas()
	if len(reps) != 4 {
		t.Fatalf("%d replica views", len(reps))
	}
	for _, r := range reps {
		if r.Queries != 10 {
			t.Errorf("replica %d served %d, want 10 under round-robin", r.ID, r.Queries)
		}
		if r.Cache.Name == "" || !r.Cache.HasBuffer {
			t.Errorf("replica %d has no visible Persistent Buffer state: %+v", r.ID, r.Cache)
		}
	}
	// Distinct initial columns: at least two distinct cached SubGraphs
	// should remain visible across 4 replicas.
	names := map[string]bool{}
	for _, r := range reps {
		names[r.Cache.Name] = true
	}
	if len(names) < 2 {
		t.Errorf("replica caches collapsed to one SubGraph: %v", names)
	}
	if got := c.Stats().Queries; got != 40 {
		t.Errorf("stats fold %d queries", got)
	}
	if len(c.Frontier()) != 7 {
		t.Errorf("frontier %d entries", len(c.Frontier()))
	}
}

func TestClusterServeStream(t *testing.T) {
	c := testCluster(t, 3, LeastLoaded)
	qs, err := UniformWorkload(30, Range{Lo: 76, Hi: 80}, Range{Lo: 2e-3, Hi: 8e-3}, 13)
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan Query)
	go func() {
		defer close(in)
		for _, q := range qs {
			in <- q
		}
	}()
	n := 0
	for r := range c.ServeStream(context.Background(), in) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		n++
	}
	if n != 30 {
		t.Fatalf("stream yielded %d results", n)
	}
}

func TestClusterContextDeadline(t *testing.T) {
	c := testCluster(t, 2, RoundRobin)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, err := c.Serve(ctx, Query{ID: 0, MinAccuracy: 0, MaxLatency: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Query.MaxLatency > 0.05+1e-9 {
		t.Errorf("deadline did not tighten the latency budget: %.3fs", res.Query.MaxLatency)
	}
	cancelled, stop := context.WithCancel(context.Background())
	stop()
	if _, err := c.Serve(cancelled, Query{ID: 1, MaxLatency: 1}); err == nil {
		t.Error("cancelled context served")
	}
}

func TestClusterAffinityBeatsRandomOnHitRatio(t *testing.T) {
	// The affinity router's whole point: more cross-query SGS reuse than
	// oblivious dispatch on the same stream.
	qs, err := UniformWorkload(80, Range{Lo: 76, Hi: 80}, Range{Lo: 2e-3, Hi: 8e-3}, 17)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(router RouterKind) float64 {
		t.Helper()
		c := testCluster(t, 4, router)
		if _, err := c.ServeAll(context.Background(), qs); err != nil {
			t.Fatal(err)
		}
		return c.Stats().AvgHitRatio
	}
	aff, rnd := serve(Affinity), serve(RandomRouter)
	if aff < rnd {
		t.Errorf("affinity hit ratio %.4f below random %.4f", aff, rnd)
	}
}

func TestClusterSimulatePublicAPI(t *testing.T) {
	c := testCluster(t, 2, LeastLoaded)
	// Budget wide enough for the slowest SubNet; rate ~3x the 2-replica
	// aggregate capacity so queueing and admission control both engage.
	budget := 8e-3
	arr, err := (Poisson{Rate: 2 / budget * 3}).Times(100, 5)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]Query, len(arr))
	for i := range qs {
		qs[i] = Query{ID: i, MaxLatency: budget}
	}
	ts, err := TimedStream(qs, arr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Simulate(ts, SimOptions{
		QueueCap:  4,
		Admission: AdmitDegrade,
		LoadAware: true,
		Drop:      true,
		Router:    LeastLoaded,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 100 || res.Served+res.Dropped != 100 {
		t.Fatalf("accounting off: %+v", res)
	}
	if res.Summary.P99E2E < res.Summary.P50E2E {
		t.Errorf("tail below median: %+v", res.Summary)
	}
	if res.Summary.Goodput <= 0 {
		t.Errorf("goodput missing: %+v", res.Summary)
	}
	if res.Degraded == 0 {
		t.Error("3x overload with cap 4 never degraded")
	}
	if _, err := c.Simulate(ts, SimOptions{Router: "carousel"}); err == nil {
		t.Error("bogus router accepted")
	}
}

// heteroStream is a drifting-budget bursty stream: budgets tighten over
// the stream so the served SubNet mix drifts from large to small.
func heteroStream(t *testing.T, n int) []TimedQuery {
	t.Helper()
	arr, err := (OnOff{OnRate: 1500, OffRate: 250, MeanOn: 0.05, MeanOff: 0.08}).Times(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := DriftingWorkload(n, Range{}, Range{},
		Range{Lo: 5.5e-3, Hi: 7e-3}, Range{Lo: 1.5e-3, Hi: 2.5e-3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := TimedStream(qs, arr)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestClusterHomogeneousHardwareBitIdentical pins the compatibility
// half of the heterogeneity change: a homogeneous fleet declared via
// WithHardware (the new per-replica path) must reproduce the plain
// WithReplicas deployment bit-for-bit per seed, and so must a fleet
// with re-caching left disabled.
func TestClusterHomogeneousHardwareBitIdentical(t *testing.T) {
	ts := heteroStream(t, 80)
	run := func(opts ...ClusterOption) *SimResult {
		c, err := NewCluster(Options{Workload: MobileNetV3, Policy: StrictLatency}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Simulate(ts, SimOptions{LoadAware: true, Drop: true, Router: LeastLoaded})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(WithReplicas(2))
	hw := run(WithHardware(ZCU104(), ZCU104()))
	if len(plain.Outcomes) != len(hw.Outcomes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(plain.Outcomes), len(hw.Outcomes))
	}
	for i := range plain.Outcomes {
		// A query's ID, floor, arrival and start live outside the record
		// or are derived from it; Timed reads them.
		p, h := plain.Timed(i), hw.Timed(i)
		if plain.Outcomes[i] != hw.Outcomes[i] || plain.Service(i) != hw.Service(i) ||
			p.Query.ID != h.Query.ID || math.Float64bits(p.Query.MinAccuracy) != math.Float64bits(h.Query.MinAccuracy) ||
			math.Float64bits(p.Arrival) != math.Float64bits(h.Arrival) || math.Float64bits(p.Start) != math.Float64bits(h.Start) {
			t.Fatalf("outcome %d diverged:\nWithReplicas: %+v %+v %+v\nWithHardware: %+v %+v %+v",
				i, plain.Outcomes[i], plain.Service(i), p, hw.Outcomes[i], hw.Service(i), h)
		}
	}
	if hw.Recaches != 0 || hw.RecacheSec != 0 {
		t.Errorf("re-caching disabled but charged: %d switches / %g s", hw.Recaches, hw.RecacheSec)
	}
}

// TestClusterMixedFleetSimulate is the tentpole acceptance path through
// the public API: a mixed ZCU104+AlveoU50 fleet with per-replica tables
// runs through Cluster.Simulate, enacts at least one modeled cache
// switch, and reports per-replica hardware on the views.
func TestClusterMixedFleetSimulate(t *testing.T) {
	c, err := NewCluster(Options{Workload: MobileNetV3, Policy: StrictLatency},
		WithHardware(ZCU104(), ZCU104(), AlveoU50(), AlveoU50()),
		WithRouter(Fastest),
		WithRecache(RecachePolicy{Window: 8, MinGain: 0.01, Cooldown: 8}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Simulate(heteroStream(t, 200), SimOptions{LoadAware: true, Drop: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 200 || res.Served+res.Dropped != 200 {
		t.Fatalf("accounting off: %+v", res)
	}
	if res.Recaches == 0 {
		t.Error("mixed fleet under drifting budgets never re-cached")
	}
	if res.Recaches > 0 && res.RecacheSec <= 0 {
		t.Errorf("%d re-caches but no charged fill time", res.Recaches)
	}
	names := map[string]int{}
	totalSwitches := 0
	for _, rv := range c.Replicas() {
		names[rv.Accel.Name]++
		totalSwitches += rv.Recaches
	}
	if names["ZCU104"] != 2 || names["AlveoU50"] != 2 {
		t.Errorf("replica hardware views wrong: %v", names)
	}
	if totalSwitches != res.Recaches {
		t.Errorf("replica views count %d switches, run counted %d", totalSwitches, res.Recaches)
	}
}

// TestClusterBatchingPublicAPI exercises WithBatching end to end: the
// cluster policy becomes the default batch former for Simulate, an
// explicit SimOptions.Batching overrides it, and live Serve calls pass
// the batch former (batch telemetry appears even for solo flushes).
func TestClusterBatchingPublicAPI(t *testing.T) {
	c, err := NewCluster(Options{Workload: MobileNetV3, Policy: StrictLatency},
		WithReplicas(2), WithRouter(LeastLoaded),
		WithBatching(4, 4*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	budget := 30e-3
	arr, err := (Poisson{Rate: 2 / 8e-3 * 2.5}).Times(120, 5)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]Query, len(arr))
	for i := range qs {
		qs[i] = Query{ID: i, MaxLatency: budget}
	}
	ts, err := TimedStream(qs, arr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Simulate(ts, SimOptions{LoadAware: true, Drop: true, Router: LeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Batches == 0 || res.Summary.MaxBatchSize < 2 {
		t.Fatalf("Simulate did not inherit WithBatching: %+v", res.Summary)
	}
	for _, o := range res.Outcomes {
		if !o.Dropped && o.Batch < 1 {
			t.Fatalf("served outcome without batch size: %+v", o)
		}
	}
	// Explicit B=1 forces an unbatched run on the batched cluster.
	solo, err := c.Simulate(ts, SimOptions{LoadAware: true, Drop: true, Router: LeastLoaded,
		Batching: Batching{MaxBatch: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if solo.Summary.Batches != 0 {
		t.Errorf("B=1 override still batched: %+v", solo.Summary)
	}
	// And the fixed-load payoff: batching must beat the unbatched run.
	if res.Summary.Goodput <= solo.Summary.Goodput {
		t.Errorf("batched goodput %.1f <= unbatched %.1f", res.Summary.Goodput, solo.Summary.Goodput)
	}
	// Live path: a serve passes the batch former and records occupancy.
	if _, err := c.Serve(context.Background(), Query{ID: 999, MaxLatency: budget}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Batches == 0 {
		t.Errorf("live serve recorded no flush: %+v", st)
	}
	// Validation: a negative batch size is a typed option error.
	if _, err := NewCluster(Options{Workload: MobileNetV3}, WithBatching(-3, time.Millisecond)); err == nil {
		t.Error("negative batch size accepted")
	}
}
