package serving

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"sushi/internal/sched"
)

// TestBatchPolicyValidate is the one table for the one validity rule
// both batch formers, DeployCluster and simq.New share.
func TestBatchPolicyValidate(t *testing.T) {
	for _, c := range []struct {
		pol     BatchPolicy
		valid   bool
		enabled bool
	}{
		{BatchPolicy{}, true, false},
		{BatchPolicy{MaxBatch: 1, Window: 1}, true, false},
		{BatchPolicy{MaxBatch: 4}, true, false},
		{BatchPolicy{MaxBatch: 2, Window: 1e-3}, true, true},
		{BatchPolicy{MaxBatch: -1}, false, false},
		{BatchPolicy{MaxBatch: 2, Window: math.NaN()}, false, false},
		{BatchPolicy{MaxBatch: 2, Window: math.Inf(1)}, false, false},
		{BatchPolicy{MaxBatch: 2, Window: math.Inf(-1)}, false, false},
		{BatchPolicy{MaxBatch: 2, Window: -1e-3}, false, false},
	} {
		if err := c.pol.Validate(); (err == nil) != c.valid {
			t.Errorf("%+v: Validate() = %v, want valid %v", c.pol, err, c.valid)
		}
		if c.valid && c.pol.Enabled() != c.enabled {
			t.Errorf("%+v: Enabled() = %v, want %v", c.pol, c.pol.Enabled(), c.enabled)
		}
	}
}

// TestLiveBatchingConcurrent drives concurrent Serve calls through the
// live batch former under the race detector: every query must come back
// served, the accumulators must balance, queue depths must drain to
// zero, and — with identical constraints and a generous window — at
// least one flush must actually group queries.
func TestLiveBatchingConcurrent(t *testing.T) {
	c := newCluster(t, 2, Full, NewRoundRobin())
	if err := c.EnableBatching(BatchPolicy{MaxBatch: 4, Window: 20e-3}); err != nil {
		t.Fatal(err)
	}
	var sys *System
	c.Replicas()[0].Inspect(func(s *System) { sys = s })
	budget := sys.Table().Lookup(sys.Table().Rows()-1, 0) * 2

	const n = 64
	var wg sync.WaitGroup
	outs := make([]Served, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Identical constraints: every query resolves to the same
			// SubNet, so concurrent arrivals are compatible.
			outs[i], errs[i] = c.Serve(context.Background(), sched.Query{ID: i, MaxLatency: budget})
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if outs[i].SubNet == "" {
			t.Fatalf("query %d: empty outcome", i)
		}
	}
	stats := c.Stats()
	if stats.Queries != n {
		t.Fatalf("stats folded %d queries, want %d", stats.Queries, n)
	}
	if stats.Batches == 0 {
		t.Fatal("no flushes recorded")
	}
	if stats.MaxBatchSize < 2 {
		t.Errorf("64 concurrent compatible queries never shared a pass (max batch %d)", stats.MaxBatchSize)
	}
	if stats.MaxBatchSize > 4 {
		t.Errorf("max batch %d exceeds policy cap 4", stats.MaxBatchSize)
	}
	for _, rep := range c.Replicas() {
		if d := rep.QueueDepth(); d != 0 {
			t.Errorf("replica %d: queue depth %d after drain", rep.ID(), d)
		}
	}
}

// TestLiveBatchingSharedLatency: members of one live flush share the
// batch's total latency and the batch size is recorded on each.
func TestLiveBatchingSharedLatency(t *testing.T) {
	c := newCluster(t, 1, Full, NewRoundRobin())
	if err := c.EnableBatching(BatchPolicy{MaxBatch: 2, Window: 50e-3}); err != nil {
		t.Fatal(err)
	}
	var sys *System
	c.Replicas()[0].Inspect(func(s *System) { sys = s })
	budget := sys.Table().Lookup(sys.Table().Rows()-1, 0) * 2

	var wg sync.WaitGroup
	outs := make([]Served, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], _ = c.Serve(context.Background(), sched.Query{ID: i, MaxLatency: budget})
		}(i)
	}
	wg.Wait()
	if outs[0].Batch == 2 || outs[1].Batch == 2 {
		// The two landed in one flush (likely with a 50ms window): they
		// must agree on everything the pass shares.
		if outs[0].Batch != outs[1].Batch || outs[0].Latency != outs[1].Latency ||
			outs[0].SubNet != outs[1].SubNet {
			t.Errorf("flush members disagree: %+v vs %+v", outs[0], outs[1])
		}
	}
}

// TestLiveBatchingCancellation: a caller abandoning the wait must not
// wedge the former or leak the reservation.
func TestLiveBatchingCancellation(t *testing.T) {
	c := newCluster(t, 1, Full, NewRoundRobin())
	if err := c.EnableBatching(BatchPolicy{MaxBatch: 8, Window: 30e-3}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Serve(ctx, sched.Query{ID: 0, MaxLatency: 1}); err == nil {
		t.Fatal("cancelled context served")
	}
	// An expired deadline fails fast too.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := c.Serve(dctx, sched.Query{ID: 1, MaxLatency: 1}); err == nil {
		t.Fatal("expired deadline served")
	}
	// Cancel mid-wait: the flusher must skip the query and release it.
	mctx, mcancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Serve(mctx, sched.Query{ID: 2, MaxLatency: 1})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	mcancel()
	if err := <-done; err == nil {
		t.Fatal("mid-wait cancellation served")
	}
	// Wait out the window so the flusher runs and drains.
	time.Sleep(60 * time.Millisecond)
	if d := c.Replicas()[0].QueueDepth(); d != 0 {
		t.Errorf("queue depth %d after cancellations", d)
	}
	// The former still works afterwards.
	var sys *System
	c.Replicas()[0].Inspect(func(s *System) { sys = s })
	budget := sys.Table().Lookup(sys.Table().Rows()-1, 0) * 2
	if _, err := c.Serve(context.Background(), sched.Query{ID: 3, MaxLatency: budget}); err != nil {
		t.Fatalf("serve after cancellations: %v", err)
	}
}

// TestBatchingDisabledPathUntouched: a cluster without EnableBatching
// (or with a non-enabled policy) serves through the classic per-query
// path — no occupancy stats appear.
func TestBatchingDisabledPathUntouched(t *testing.T) {
	c := newCluster(t, 1, Full, NewRoundRobin())
	if err := c.EnableBatching(BatchPolicy{MaxBatch: 1, Window: 3600}); err != nil {
		t.Fatal(err)
	}
	if c.BatchPolicy().Enabled() {
		t.Fatal("B=1 policy reports enabled")
	}
	qs := clusterWorkload(t, c, 8)
	for _, q := range qs {
		if _, err := c.Serve(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Batches != 0 || st.MaxBatchSize != 0 {
		t.Errorf("unbatched cluster reported occupancy: %+v", st)
	}
}

// TestLiveBatchingMixedPolicies: queries with different effective
// policies landing in one flush must NOT share a pass (ScheduleBatch
// rejects mixed-policy batches) — the former splits them into
// per-policy groups and every caller still succeeds.
func TestLiveBatchingMixedPolicies(t *testing.T) {
	c := newCluster(t, 1, Full, NewRoundRobin())
	if err := c.EnableBatching(BatchPolicy{MaxBatch: 8, Window: 25e-3}); err != nil {
		t.Fatal(err)
	}
	var sys *System
	c.Replicas()[0].Inspect(func(s *System) { sys = s })
	budget := sys.Table().Lookup(sys.Table().Rows()-1, 0) * 2

	acc := sched.StrictAccuracy
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := sched.Query{ID: i, MaxLatency: budget}
			if i%2 == 1 {
				// Override to strict accuracy with a trivial floor: the
				// same fastest SubNet row, but a different policy.
				q.Policy = &acc
			}
			_, errs[i] = c.Serve(context.Background(), q)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d failed in a mixed-policy flush: %v", i, err)
		}
	}
	if st := c.Stats(); st.Queries != 8 {
		t.Fatalf("stats folded %d queries, want 8", st.Queries)
	}
}
