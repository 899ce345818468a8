package simq

import (
	"math"
	"reflect"
	"testing"

	"sushi/internal/sched"
	"sushi/internal/serving"
)

// batchRun plays one Poisson overload stream through a fresh 2-replica
// cluster with the given batch former.
func batchRun(t *testing.T, b Batching, n int, rateFactor float64) *Result {
	t.Helper()
	return batchRunPolicy(t, b, n, rateFactor, nil)
}

// batchRunPolicy is batchRun with every query carrying the override p
// (none if nil).
func batchRunPolicy(t *testing.T, b Batching, n int, rateFactor float64, p *sched.Policy) *Result {
	t.Helper()
	reps := newReplicas(t, 2)
	var budget float64
	reps[0].Inspect(func(sys *serving.System) { budget = latHi(sys) * 1.1 })
	capacity := float64(len(reps)) / budget
	eng, err := New(reps, Options{
		LoadAware: true,
		Drop:      true,
		Router:    serving.NewLeastLoaded(),
		Batching:  b,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The SLO budget leaves room for a full batch (weights once + B
	// items), so batching trades per-query latency for goodput inside
	// the budget rather than past it.
	qs := timedStream(t, n, capacity*rateFactor, budget*4)
	for i := range qs {
		qs[i].Policy = p
	}
	return checked(t, eng, qs)
}

// sameRecord reports whether outcome i reads the same in a and b: the
// record, its service tuple, and (bit for bit) its ID, floor, arrival
// and start, which Timed reads from the Result's columns or derives.
func sameRecord(a, b *Result, i int) bool {
	ta, tb := a.Timed(i), b.Timed(i)
	return a.Outcomes[i] == b.Outcomes[i] && a.Service(i) == b.Service(i) &&
		ta.Query.ID == tb.Query.ID && math.Float64bits(ta.Query.MinAccuracy) == math.Float64bits(tb.Query.MinAccuracy) &&
		math.Float64bits(ta.Arrival) == math.Float64bits(tb.Arrival) && math.Float64bits(ta.Start) == math.Float64bits(tb.Start)
}

// sameOutcomes compares two outcome streams record by record, service
// tuples, IDs, floors and instants included.
func sameOutcomes(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatalf("%s: outcome counts differ: %d vs %d", label, len(a.Outcomes), len(b.Outcomes))
	}
	for i := range a.Outcomes {
		if x, y := a.Outcomes[i], b.Outcomes[i]; !sameRecord(a, b, i) {
			t.Fatalf("%s: outcome %d differs:\n%+v %+v\n%+v %+v", label, i, x, a.Service(i), y, b.Service(i))
		}
	}
	if !reflect.DeepEqual(a.Summary, b.Summary) {
		t.Errorf("%s: summaries differ:\n%+v\n%+v", label, a.Summary, b.Summary)
	}
}

// TestBatchingDisabledBitIdentical is the refactor's safety property:
// B=1 (whatever the window) and W=0 (whatever the batch size) must
// reproduce the unbatched engine bit for bit, per seed — the flush-event
// loop degenerates to the classic start-next event.
func TestBatchingDisabledBitIdentical(t *testing.T) {
	base := batchRun(t, Batching{}, 120, 2.5)
	sameOutcomes(t, "B=1,W>0", base, batchRun(t, Batching{MaxBatch: 1, Window: 0.05}, 120, 2.5))
	sameOutcomes(t, "B=8,W=0", base, batchRun(t, Batching{MaxBatch: 8, Window: 0}, 120, 2.5))
	for _, o := range base.Outcomes {
		if !o.Dropped && o.Batch != 1 {
			t.Fatalf("unbatched engine reported batch size %d", o.Batch)
		}
	}
	if base.Summary.Batches != 0 || base.Summary.AvgBatchSize != 0 {
		t.Errorf("unbatched engine reported occupancy stats: %+v", base.Summary)
	}
}

// TestBatchedDeterminism: identical seeds over fresh deployments give
// bit-identical batched runs.
func TestBatchedDeterminism(t *testing.T) {
	b := Batching{MaxBatch: 4, Window: 0.01}
	sameOutcomes(t, "batched", batchRun(t, b, 120, 2.5), batchRun(t, b, 120, 2.5))
}

// TestBatchedVirtualTimeExact is property (a) of the batching model:
// every member of a flush shares Start and Finish, Finish - Start is
// exactly the batch's service latency (every member's Served.Latency is
// the batch total), the members of one flush agree on SubNet and batch
// size, and the recorded size matches the actual group size.
func TestBatchedVirtualTimeExact(t *testing.T) {
	res := batchRun(t, Batching{MaxBatch: 8, Window: 0.02}, 160, 3)
	type flushKey struct {
		replica uint16
		start   float64
	}
	groups := map[flushKey][]int{}
	for i, o := range res.Outcomes {
		if o.Dropped {
			continue
		}
		start := res.Timed(i).Start
		if got, lat := o.Finish-start, res.Service(i).Latency; math.Abs(got-lat) > 1e-12 {
			t.Fatalf("outcome %d: Finish-Start %g != Latency %g", i, got, lat)
		}
		if o.Batch < 1 || o.Batch > 8 {
			t.Fatalf("outcome %d: batch size %d outside [1, 8]", i, o.Batch)
		}
		groups[flushKey{o.Replica, start}] = append(groups[flushKey{o.Replica, start}], i)
	}
	sawMulti := false
	for k, g := range groups {
		head := res.Outcomes[g[0]]
		if len(g) != int(head.Batch) {
			t.Fatalf("flush %+v: %d members but batch size %d", k, len(g), head.Batch)
		}
		if head.Batch > 1 {
			sawMulti = true
		}
		recaches := 0
		for _, i := range g {
			o := res.Outcomes[i]
			if o.Finish != head.Finish || o.Batch != head.Batch {
				t.Fatalf("flush %+v: members disagree on finish/batch", k)
			}
			if sn, want := res.Timed(i).SubNet, res.Timed(g[0]).SubNet; sn != want {
				t.Fatalf("flush %+v: mixed SubNets %q and %q in one pass", k, sn, want)
			}
			if res.Service(i).RecacheSec > 0 {
				recaches++
			}
		}
		if recaches > 1 {
			t.Fatalf("flush %+v charged %d re-caches; at most one allowed", k, recaches)
		}
	}
	if !sawMulti {
		t.Fatal("3x overload with B=8 produced no multi-query batch")
	}
	if res.Summary.Batches == 0 || res.Summary.AvgBatchSize <= 1 || res.Summary.MaxBatchSize < 2 {
		t.Errorf("occupancy stats implausible under overload: %+v", res.Summary)
	}
	// Occupancy consistency: members sum to served queries.
	if got := int(res.Summary.AvgBatchSize*float64(res.Summary.Batches) + 0.5); got != res.Served {
		t.Errorf("occupancy members %d != served %d", got, res.Served)
	}
}

// TestBatchingImprovesGoodput is the acceptance criterion: at a fixed
// offered load beyond unbatched capacity, micro-batching amortizes the
// dominant weight traffic and goodput strictly increases with B > 1.
func TestBatchingImprovesGoodput(t *testing.T) {
	solo := batchRun(t, Batching{}, 160, 2.5)
	for _, b := range []int{2, 4, 8} {
		batched := batchRun(t, Batching{MaxBatch: b, Window: 0.02}, 160, 2.5)
		t.Logf("B=%d: goodput %.1f qps (solo %.1f), p99 %.2f ms (solo %.2f), avg batch %.2f",
			b, batched.Summary.Goodput, solo.Summary.Goodput,
			batched.Summary.P99E2E*1e3, solo.Summary.P99E2E*1e3, batched.Summary.AvgBatchSize)
		if batched.Summary.Goodput <= solo.Summary.Goodput {
			t.Errorf("B=%d goodput %.2f qps not above unbatched %.2f qps",
				b, batched.Summary.Goodput, solo.Summary.Goodput)
		}
	}
}

// TestBatchWindowBoundsFormerWait: no served query may wait on an IDLE
// replica longer than the window — the former's deadline is hard. (A
// busy replica can of course impose arbitrary queueing delay on top;
// this is checked at light load where the replica idles between
// flushes.)
func TestBatchWindowBoundsFormerWait(t *testing.T) {
	const window = 0.02
	res := batchRun(t, Batching{MaxBatch: 8, Window: window}, 60, 0.3)
	for i, o := range res.Outcomes {
		if o.Dropped {
			continue
		}
		// At 0.3x capacity the replica is idle when most queries arrive:
		// their start must come within window (+ a possible in-service
		// pass) of arrival.
		var maxService float64
		if lat := res.Service(i).Latency; lat > maxService {
			maxService = lat
		}
		if wait := res.Timed(i).QueueDelay; wait > window+10*maxService {
			t.Fatalf("outcome %d waited %.4fs with window %.4fs at light load",
				i, wait, window)
		}
	}
	if res.Summary.Batches == 0 {
		t.Error("no flushes recorded")
	}
}

// TestBatchingValidation: the engine rejects a malformed batch former
// through serving.BatchPolicy.Validate (whose table covers the cases).
func TestBatchingValidation(t *testing.T) {
	b := Batching{MaxBatch: 2, Window: math.NaN()}
	_, err := New(newReplicas(t, 1), Options{Batching: b})
	if want := b.Validate(); err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("New with %+v = %v, want Validate's %v", b, err, want)
	}
}
