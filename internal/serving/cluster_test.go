package serving

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"sushi/internal/accel"
	"sushi/internal/sched"
	"sushi/internal/supernet"
	"sushi/internal/workload"
)

// soloReplica wraps one system as a single-model replica: the one
// tenant whose model id is "".
func soloReplica(t testing.TB, id int, sys *System) *Replica {
	t.Helper()
	rep, err := NewMultiReplica(id, []Tenant{{Sys: sys}})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// newCluster builds R replicas over one shared latency table, replica i
// booting with static column i (distinct initial cache states).
func newCluster(t *testing.T, r int, mode Mode, router Router) *Cluster {
	t.Helper()
	s, fr := fixtures(t, supernet.MobileNetV3)
	opt := Options{
		Accel:      accel.ZCU104(),
		Policy:     sched.StrictLatency,
		Q:          4,
		Mode:       mode,
		Candidates: 12,
		Seed:       1,
	}
	table, _, err := BuildTable(s, fr, opt)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*Replica, r)
	for i := range reps {
		o := opt
		o.Table = table
		o.StaticColumn = i % table.Cols()
		sys, err := New(s, fr, o)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = soloReplica(t, i, sys)
	}
	c, err := NewCluster(reps, router)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func clusterWorkload(t *testing.T, c *Cluster, n int) []sched.Query {
	t.Helper()
	var sys *System
	c.Replicas()[0].Inspect(func(s *System) { sys = s })
	qs, err := workload.Uniform(n, accRange(sys), latRange(sys), 7)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

// exactFold is the closed-loop Summary written out directly over the
// whole stream (no reservoir, no buckets): the oracle the Accumulator
// fold, and so Summarize, is checked against.
func exactFold(rs []Served) Summary {
	var s Summary
	s.Queries = len(rs)
	if len(rs) == 0 {
		return s
	}
	lats := make([]float64, 0, len(rs))
	for _, r := range rs {
		s.AvgLatency += r.Latency
		s.AvgAccuracy += r.Accuracy
		s.AvgHitRatio += r.HitRatio
		s.HitBytes += r.HitBytes
		s.OffChipEnergyJ += r.OffChipEnergyJ
		if r.LatencyMet {
			s.LatencySLO++
		}
		if r.AccuracyMet {
			s.AccuracySLO++
		}
		if r.Feasible {
			s.FeasibleFraction++
		}
		if r.CacheSwapped {
			s.CacheSwaps++
		}
		if r.Recached {
			s.Recaches++
		}
		lats = append(lats, r.Latency)
	}
	n := float64(len(rs))
	s.AvgLatency /= n
	s.AvgAccuracy /= n
	s.AvgHitRatio /= n
	s.LatencySLO /= n
	s.AccuracySLO /= n
	s.FeasibleFraction /= n
	slices.Sort(lats)
	s.P50Latency = percentile(lats, 0.50)
	s.P95Latency = percentile(lats, 0.95)
	s.P99Latency = percentile(lats, 0.99)
	return s
}

// summariesClose compares summaries field-by-field with a relative
// tolerance: folding per-replica sums re-associates float additions.
func summariesClose(a, b Summary) bool {
	if a.Queries != b.Queries || a.CacheSwaps != b.CacheSwaps || a.HitBytes != b.HitBytes {
		return false
	}
	close := func(x, y float64) bool {
		d := math.Abs(x - y)
		return d <= 1e-9 || d <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
	}
	return close(a.AvgLatency, b.AvgLatency) && close(a.P50Latency, b.P50Latency) &&
		close(a.P99Latency, b.P99Latency) && close(a.AvgAccuracy, b.AvgAccuracy) &&
		close(a.LatencySLO, b.LatencySLO) && close(a.AccuracySLO, b.AccuracySLO) &&
		close(a.FeasibleFraction, b.FeasibleFraction) && close(a.AvgHitRatio, b.AvgHitRatio) &&
		close(a.OffChipEnergyJ, b.OffChipEnergyJ)
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(nil, nil); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := NewCluster([]*Replica{nil}, nil); err == nil {
		t.Error("nil replica accepted")
	}
	if _, err := NewMultiReplica(0, []Tenant{{Sys: nil}}); err == nil {
		t.Error("nil system accepted")
	}
}

func TestClusterRoundRobinPartition(t *testing.T) {
	c := newCluster(t, 3, Full, NewRoundRobin())
	qs := clusterWorkload(t, c, 30)
	rs, err := c.ServeAll(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 30 {
		t.Fatalf("served %d, want 30", len(rs))
	}
	for i, r := range rs {
		if r.SubNet == "" {
			t.Fatalf("query %d has empty outcome", i)
		}
		if r.Query.ID != qs[i].ID {
			t.Fatalf("result %d out of order: query %d", i, r.Query.ID)
		}
	}
	for i, rep := range c.Replicas() {
		if n := rep.Summary().Queries; n != 10 {
			t.Errorf("replica %d served %d, want 10", i, n)
		}
		if rep.QueueDepth() != 0 {
			t.Errorf("replica %d queue depth %d after drain", i, rep.QueueDepth())
		}
	}
	if got := c.Stats().Queries; got != 30 {
		t.Errorf("cluster stats fold %d queries, want 30", got)
	}
}

// TestClusterDeterministicUnderSeededRouter runs the same stream twice
// through fresh clusters with a seeded random router: per-replica
// summaries must match exactly.
func TestClusterDeterministicUnderSeededRouter(t *testing.T) {
	run := func() []Summary {
		c := newCluster(t, 3, Full, NewRandom(42))
		qs := clusterWorkload(t, c, 60)
		if _, err := c.ServeAll(context.Background(), qs); err != nil {
			t.Fatal(err)
		}
		out := make([]Summary, 0, c.Size())
		for _, rep := range c.Replicas() {
			out = append(out, rep.Summary())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("replica %d summaries diverge:\n%v\n%v", i, a[i], b[i])
		}
	}
}

func TestClusterStatsMatchSummarize(t *testing.T) {
	c := newCluster(t, 2, Full, NewRoundRobin())
	qs := clusterWorkload(t, c, 20)
	rs, err := c.ServeAll(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	got, want := c.Stats(), exactFold(rs)
	if !summariesClose(got, want) {
		t.Errorf("folded stats diverge from the exact fold:\n%v\n%v", got, want)
	}
}

func TestLeastLoadedAvoidsBusyReplica(t *testing.T) {
	c := newCluster(t, 2, Full, NewLeastLoaded())
	// Pin load on replica 0: reservations count as depth.
	c.Replicas()[0].Reserve()
	defer c.Replicas()[0].Release()
	q := clusterWorkload(t, c, 1)[0]
	if _, err := c.Serve(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if got := c.Replicas()[1].Summary().Queries; got != 1 {
		t.Errorf("least-loaded routed to the busy replica (replica 1 served %d)", got)
	}
}

// TestAffinityRoutesToCoveringReplica uses StateUnaware replicas (their
// caches never change) with distinct cached SubGraphs: every query must
// land on the replica whose cache best covers the SubNet it would serve,
// so the served hit ratio can never fall below the other replica's.
func TestAffinityRoutesToCoveringReplica(t *testing.T) {
	c := newCluster(t, 4, StateUnaware, NewAffinity())
	qs := clusterWorkload(t, c, 40)
	for _, q := range qs {
		res, err := c.Serve(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		// Recompute the best available overlap across replicas for the
		// SubNet actually served; affinity must have achieved it.
		best := -1.0
		for _, rep := range c.Replicas() {
			rep.Inspect(func(sys *System) {
				sn := sys.Table().SubNets[res.Row]
				if cached := sys.Simulator().Cached(); cached != nil {
					if ov := supernet.Overlap(sn.Graph, cached); ov > best {
						best = ov
					}
				}
			})
		}
		if res.HitRatio < best-1e-9 {
			t.Fatalf("affinity served hit %.4f, best available %.4f", res.HitRatio, best)
		}
	}
	if got := c.Stats().Queries; got != len(qs) {
		t.Fatalf("stats fold %d queries, want %d", got, len(qs))
	}
}

func TestClusterServeStreamDrains(t *testing.T) {
	c := newCluster(t, 3, Full, NewLeastLoaded())
	qs := clusterWorkload(t, c, 50)
	in := make(chan sched.Query)
	go func() {
		for _, q := range qs {
			in <- q
		}
		close(in)
	}()
	n := 0
	for r := range c.ServeStream(context.Background(), in) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Replica < 0 || r.Replica >= c.Size() {
			t.Fatalf("bad replica id %d", r.Replica)
		}
		n++
	}
	if n != 50 {
		t.Fatalf("stream yielded %d results, want 50", n)
	}
	for i, rep := range c.Replicas() {
		if rep.QueueDepth() != 0 {
			t.Errorf("replica %d queue depth %d after stream close", i, rep.QueueDepth())
		}
	}
}

func TestClusterServeStreamCancel(t *testing.T) {
	c := newCluster(t, 2, Full, NewRoundRobin())
	qs := clusterWorkload(t, c, 100)
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan sched.Query)
	go func() {
		defer close(in)
		for _, q := range qs {
			select {
			case in <- q:
			case <-ctx.Done():
				return
			}
		}
	}()
	out := c.ServeStream(ctx, in)
	for i := 0; i < 5; i++ {
		if r, ok := <-out; !ok || r.Err != nil {
			t.Fatalf("early result %d: ok=%v err=%v", i, ok, r.Err)
		}
	}
	cancel()
	// The channel must close promptly — workers drain, nothing leaks.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-out:
			if !ok {
				for i, rep := range c.Replicas() {
					if rep.QueueDepth() != 0 {
						t.Errorf("replica %d queue depth %d after cancel", i, rep.QueueDepth())
					}
				}
				return
			}
		case <-deadline:
			t.Fatal("stream did not drain after cancel")
		}
	}
}

func TestClusterServeAllCancelled(t *testing.T) {
	c := newCluster(t, 2, Full, NewRoundRobin())
	qs := clusterWorkload(t, c, 10)
	columns := func() (cols []int) {
		for _, rep := range c.Replicas() {
			rep.InspectTenants(func(_ string, _ int64, sys *System) {
				cols = append(cols, sys.Scheduler().CacheColumn())
			})
		}
		return cols
	}
	before := columns()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.ServeAll(ctx, qs); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ServeAll returned %v, want context.Canceled", err)
	}
	for i, rep := range c.Replicas() {
		if rep.QueueDepth() != 0 {
			t.Errorf("replica %d queue depth %d after cancelled ServeAll", i, rep.QueueDepth())
		}
	}
	if n := c.Stats().Queries; n != 0 {
		t.Errorf("cancelled ServeAll folded %d queries, want 0", n)
	}
	if after := columns(); !slices.Equal(after, before) {
		t.Errorf("cancelled ServeAll moved the tenant cache columns %v to %v", before, after)
	}
}

// TestServeContextDeadlineTightensBudget pins tightenBudget on a
// one-replica cluster, the shape of a single accelerator.
func TestServeContextDeadlineTightensBudget(t *testing.T) {
	c := newCluster(t, 1, Full, NewRoundRobin())
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, err := c.Serve(ctx, sched.Query{ID: 0, MinAccuracy: 0, MaxLatency: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Query.MaxLatency > 0.05+1e-9 {
		t.Errorf("deadline did not tighten MaxLatency: %.3fs", res.Query.MaxLatency)
	}
	expired, cancelExp := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancelExp()
	time.Sleep(time.Millisecond)
	if _, err := c.Serve(expired, sched.Query{ID: 1, MaxLatency: 1}); err == nil {
		t.Error("expired context served")
	}
	if n := c.Stats().Queries; n != 1 {
		t.Errorf("%d queries folded, want 1 (the expired one must not serve)", n)
	}
}

func TestAccumulatorMatchesSummarize(t *testing.T) {
	sys := newSystem(t, supernet.MobileNetV3, Full, sched.StrictLatency)
	qs, err := workload.Uniform(25, accRange(sys), latRange(sys), 3)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sys.ServeAll(qs)
	if err != nil {
		t.Fatal(err)
	}
	var a, b Accumulator
	for _, r := range rs[:10] {
		a.add(&r)
	}
	for _, r := range rs[10:] {
		b.add(&r)
	}
	merged := a.Snapshot()
	merged.Merge(&b)
	if got, want := merged.Summary(), exactFold(rs); !summariesClose(got, want) {
		t.Errorf("accumulator fold diverges from the exact fold:\n%v\n%v", got, want)
	}
	if got, want := Summarize(rs), exactFold(rs); !summariesClose(got, want) {
		t.Errorf("Summarize diverges from the exact fold:\n%v\n%v", got, want)
	}
}

// TestSummarizePastReservoirCap streams more outcomes than one latency
// reservoir holds, over two models and two classes: Summarize must equal
// the Accumulator fold of the same stream bit for bit (buckets
// included), and every aggregate but the sampled percentiles must equal
// the exact fold.
func TestSummarizePastReservoirCap(t *testing.T) {
	n := 3*maxLatencySamples + 7
	rs := make([]Served, n)
	for i := range rs {
		rs[i] = Served{
			Query:    sched.Query{Model: []string{"a", "b"}[i%2], Class: []string{"gold", "batch"}[i%3%2]},
			Latency:  float64((i*7919)%1000) * 1e-5,
			Accuracy: 70 + float64(i%10),
			HitRatio: float64(i%4) / 4, HitBytes: int64(i % 5), OffChipEnergyJ: 1e-6,
			LatencyMet: i%3 != 0, AccuracyMet: i%5 != 0, Feasible: i%7 != 0,
			CacheSwapped: i%11 == 0, Recached: i%13 == 0,
		}
	}
	var a Accumulator
	for _, r := range rs {
		a.add(&r)
	}
	got := Summarize(rs)
	if want := a.Summary(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Summarize diverges from the Accumulator fold:\n%v\n%v", got, want)
	}
	if len(got.PerModel) != 2 || len(got.PerClass) != 2 {
		t.Fatalf("%d model and %d class slices, want 2 and 2", len(got.PerModel), len(got.PerClass))
	}
	exact := exactFold(rs)
	exact.P50Latency, exact.P95Latency, exact.P99Latency = got.P50Latency, got.P95Latency, got.P99Latency
	if !summariesClose(got, exact) || got.Recaches != exact.Recaches {
		t.Errorf("aggregates past the cap diverge from the exact fold:\n%v\n%v", got, exact)
	}
}

func TestSharedTableMatchesPerReplicaBuild(t *testing.T) {
	s, fr := fixtures(t, supernet.MobileNetV3)
	opt := Options{
		Accel: accel.ZCU104(), Policy: sched.StrictLatency,
		Q: 4, Mode: Full, Candidates: 12, Seed: 1,
	}
	own, err := New(s, fr, opt)
	if err != nil {
		t.Fatal(err)
	}
	table, _, err := BuildTable(s, fr, opt)
	if err != nil {
		t.Fatal(err)
	}
	shared := opt
	shared.Table = table
	sysShared, err := New(s, fr, shared)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := workload.Uniform(20, accRange(own), latRange(own), 5)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := own.ServeAll(qs)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sysShared.ServeAll(qs)
	if err != nil {
		t.Fatal(err)
	}
	if !summariesClose(Summarize(ra), Summarize(rb)) {
		t.Error("shared-table system diverges from per-system build")
	}
}

func TestAccumulatorReservoirBounded(t *testing.T) {
	var a, b Accumulator
	for i := 0; i < 3*maxLatencySamples; i++ {
		r := Served{Latency: float64(i%100) * 1e-3, LatencyMet: true}
		a.add(&r)
		b.add(&r)
	}
	if len(a.lats.xs) != maxLatencySamples {
		t.Fatalf("reservoir holds %d samples, want cap %d", len(a.lats.xs), maxLatencySamples)
	}
	sa, sb := a.Summary(), b.Summary()
	if !reflect.DeepEqual(sa, sb) {
		t.Error("identical add orders produced different summaries (reservoir not deterministic)")
	}
	if sa.Queries != 3*maxLatencySamples || sa.LatencySLO != 1 {
		t.Errorf("exact aggregates wrong: %+v", sa)
	}
	// Percentiles stay plausible under sampling: latencies are uniform
	// over [0, 99] ms, so P50 must land well inside the range.
	if sa.P50Latency < 20e-3 || sa.P50Latency > 80e-3 {
		t.Errorf("sampled P50 %.1f ms implausible for uniform [0,99] ms", sa.P50Latency*1e3)
	}
}

func TestMergeWeightsReservoirsByTraffic(t *testing.T) {
	// Replica A: heavy traffic, fast (1 ms). Replica B: 100 queries,
	// slow (100 ms) — 0.5% of traffic. Unweighted concatenation would
	// let B's 100 samples own the merged P99; traffic weighting must
	// keep both P50 and P99 at A's latency.
	var a, b Accumulator
	for i := 0; i < 5*maxLatencySamples; i++ {
		a.add(&Served{Latency: 1e-3})
	}
	for i := 0; i < 100; i++ {
		b.add(&Served{Latency: 100e-3})
	}
	m := a.Snapshot()
	m.Merge(&b)
	sum := m.Summary()
	if sum.Queries != 5*maxLatencySamples+100 {
		t.Fatalf("merged %d queries", sum.Queries)
	}
	if sum.P50Latency > 2e-3 || sum.P99Latency > 2e-3 {
		t.Errorf("merged percentiles not traffic-weighted: p50=%.1fms p99=%.1fms",
			sum.P50Latency*1e3, sum.P99Latency*1e3)
	}
}

func TestAffinityScoreLockFree(t *testing.T) {
	c := newCluster(t, 2, Full, NewAffinity())
	rep := c.Replicas()[0]
	q := clusterWorkload(t, c, 1)[0]
	// Score while the replica lock is held: must not block (the old
	// implementation dead-locked here by taking the replica mutex).
	done := make(chan float64, 1)
	rep.Inspect(func(*System) {
		go func() { done <- rep.AffinityScore(q) }()
		select {
		case s := <-done:
			if s < 0 || s > 1 {
				t.Errorf("affinity score %.3f outside [0,1]", s)
			}
		case <-time.After(2 * time.Second):
			t.Error("AffinityScore blocked on the replica lock")
		}
	})
}

// TestBatchedServeOffersArrivedQuery: a Serve under a context deadline
// leaves the query as it arrived in the re-cache window, not its
// deadline-tightened copy, with the live batch former on or off — so
// the advisor's window never depends on the wall clock.
func TestBatchedServeOffersArrivedQuery(t *testing.T) {
	var window [2]sched.Query
	for i, batch := range []bool{false, true} {
		c := newCluster(t, 1, Full, NewRoundRobin())
		rep := c.Replicas()[0]
		rep.EnableRecache(RecachePolicy{Window: 8})
		if batch {
			if err := c.EnableBatching(BatchPolicy{MaxBatch: 2, Window: 1e-3}); err != nil {
				t.Fatal(err)
			}
		}
		q := clusterWorkload(t, c, 1)[0]
		q.MaxLatency = 1e3 // the deadline below tightens it
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		_, err := c.Serve(ctx, q)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		window[i] = rep.tenants[0].rec.recent[0]
		if window[i].MaxLatency != q.MaxLatency {
			t.Errorf("batch=%v: window holds budget %g s, want the offered %g s", batch, window[i].MaxLatency, q.MaxLatency)
		}
	}
	if window[0] != window[1] {
		t.Errorf("window entry differs with batching: %+v vs %+v", window[0], window[1])
	}
}
