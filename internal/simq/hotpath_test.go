package simq

// Tests for the indexed-event hot path: lazy arrival streaming, the
// zero-alloc steady state and the per-query cost, with its benchmark.

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/workload"
)

// hotOptions is the load-shaped fixture shared by the streaming and
// allocation tests: bounded queues, degrade admission, load-aware
// debiting and micro-batching — every hot-path branch exercised.
func hotOptions(router serving.Router, window float64) Options {
	return Options{
		QueueCap:  6,
		Admission: Degrade,
		LoadAware: true,
		Drop:      true,
		Router:    router,
		Batching:  Batching{MaxBatch: 4, Window: window},
	}
}

// TestRunProcessMatchesRun pins lazy arrival streaming: drawing
// arrivals one at a time through RunProcess must reproduce, bit for
// bit, the Result of materializing the same process with Times and
// calling Run.
func TestRunProcessMatchesRun(t *testing.T) {
	const n, seed = 120, 9
	budget := 0.0
	proc := workload.Poisson{Rate: 600}
	mkQuery := func(i int, budget float64) sched.Query {
		return sched.Query{ID: i, MaxLatency: budget * (0.8 + 0.4*float64(i%5)/4)}
	}
	build := func() *Engine {
		reps := newReplicas(t, 3)
		if budget == 0 {
			budget = replicaLatHi(reps[0]) * 1.3
		}
		eng, err := New(reps, hotOptions(serving.NewRoundRobin(), budget/3))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	arr, err := proc.Times(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	eager := build()
	qs := make([]serving.TimedQuery, n)
	for i := range qs {
		qs[i] = serving.TimedQuery{Query: mkQuery(i, budget), Arrival: arr[i]}
	}
	want, err := eager.Run(qs)
	if err != nil {
		t.Fatal(err)
	}

	lazy := build()
	stream, err := proc.Stream(seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lazy.RunProcess(n, stream, func(i int, _ float64) sched.Query {
		return mkQuery(i, budget)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("lazy RunProcess diverges from materialized Run:\n%+v\n%+v",
			want.Summary, got.Summary)
	}
}

// TestRunProcessValidation pins RunProcess's argument and mid-stream
// guards.
func TestRunProcessValidation(t *testing.T) {
	reps := newReplicas(t, 1)
	eng, err := New(reps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int, _ float64) sched.Query { return sched.Query{ID: i, MaxLatency: 1} }
	if _, err := eng.RunProcess(0, func() (float64, bool) { return 0, true }, mk); err == nil {
		t.Error("non-positive count accepted")
	}
	if _, err := eng.RunProcess(1, nil, mk); err == nil {
		t.Error("nil stream accepted")
	}
	if _, err := eng.RunProcess(1, func() (float64, bool) { return 0, true }, nil); err == nil {
		t.Error("nil query maker accepted")
	}
	if _, err := eng.RunProcess(4, func() (float64, bool) { return 0, false }, mk); err == nil {
		t.Error("exhausted stream accepted")
	}
	dec := 2.0
	if _, err := eng.RunProcess(4, func() (float64, bool) { dec -= 1; return dec, true }, mk); err == nil {
		t.Error("decreasing arrival stream accepted")
	}
	if _, err := eng.RunProcess(2, func() (float64, bool) { return math.NaN(), true }, mk); err == nil {
		t.Error("NaN arrival accepted")
	}
}

// TestSteadyStateAllocs pins the zero-alloc steady state: a warm
// engine's whole-run allocation count stays bounded by per-run setup
// (result skeleton, scratch growth to the high-water mark) instead of
// scaling with the query count. The budget of 0.25 allocs per query
// would fail loudly if any per-query path regained an allocation (one
// alloc per query would be 4x over).
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	budget := 0.0
	reps := newReplicas(t, 4)
	budget = replicaLatHi(reps[0]) * 1.3
	const n = 1000
	qs := timedStream(t, n, 700, budget)
	eng, err := New(reps, hotOptions(serving.NewRoundRobin(), budget/3))
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := eng.Run(qs); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm caches, scratch and reservoirs
	allocs := testing.AllocsPerRun(3, run)
	if perQuery := allocs / n; perQuery > 0.25 {
		t.Errorf("steady state allocates %.0f per run (%.3f per query); want < 0.25 per query",
			allocs, perQuery)
	}
}

// TestSteadyStateAllocsCohortStream extends the zero-alloc pin to
// cohort arrivals (PR 8): streaming a skewed multi-class Population
// through RunProcess must stay within the same per-query budget as
// the materialized gate above. Each run rebuilds the labeled stream
// and the lazily-created per-class accumulator buckets (both bounded
// per-run setup, which is why this gate uses a longer stream to
// amortize them), but the per-arrival path — superposition scan,
// empirical mark draws, query minting — must not allocate.
func TestSteadyStateAllocsCohortStream(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	budget := 0.0
	reps := newReplicas(t, 4)
	budget = replicaLatHi(reps[0]) * 1.3
	const n = 8000
	pop := workload.Population{Cohorts: []workload.Cohort{
		{Rate: 500, SLOClass: "gold", InterArrival: workload.IAGamma, Shape: 0.4,
			Budget: workload.Empirical{Values: []float64{budget, budget * 1.5}}},
		{Rate: 150, SLOClass: "silver", InterArrival: workload.IAWeibull, Shape: 0.7,
			Budget: workload.Empirical{Values: []float64{budget * 2}}},
		{Rate: 50, SLOClass: "batch", Budget: workload.Empirical{Values: []float64{budget * 3}}},
	}}
	eng, err := New(reps, hotOptions(serving.NewRoundRobin(), budget/3))
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		ls, err := pop.Labeled(21)
		if err != nil {
			t.Fatal(err)
		}
		var cur workload.CohortArrival
		stream := func() (float64, bool) {
			a, ok := ls()
			if !ok {
				return 0, false
			}
			cur = a
			return a.T, true
		}
		mk := func(i int, _ float64) sched.Query {
			q := cur.Query
			q.ID = i
			return q
		}
		if _, err := eng.RunProcess(n, stream, mk); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm caches, scratch and reservoirs
	allocs := testing.AllocsPerRun(3, run)
	if perQuery := allocs / n; perQuery > 0.25 {
		t.Errorf("cohort steady state allocates %.0f per run (%.3f per query); want < 0.25 per query",
			allocs, perQuery)
	}
}

// BenchmarkRunProcess times one lazy run of 20 000 queries over the
// hot-path fixture (four replicas, hotOptions) on a warm engine, and
// reports what a query costs it: ns/query, and B/query allocated —
// the outcome record and little else (TestMarginalQueryCost).
func BenchmarkRunProcess(b *testing.B) {
	reps := newReplicas(b, 4)
	budget := replicaLatHi(reps[0]) * 1.3
	eng, err := New(reps, hotOptions(serving.NewRoundRobin(), budget/3))
	if err != nil {
		b.Fatal(err)
	}
	const n = 20_000
	run := func() {
		stream, err := workload.Poisson{Rate: 700}.Stream(3)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.RunProcess(n, stream, func(i int, _ float64) sched.Query {
			return sched.Query{ID: i, MaxLatency: budget}
		}); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm caches, memos and scratch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	queries := float64(b.N) * n
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/queries, "ns/query")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/queries, "B/query")
}

// TestMarginalQueryCost pins what one MORE query costs a warm engine,
// where TestSteadyStateAllocs above divides a whole short run — result
// skeleton, accumulators, scratch growth — by its length: the
// difference in bytes allocated between a 64 000- and a 32 000-query
// run, per added query, may exceed the Outcome record by at most 8
// bytes. Both runs are long enough that every 4 096-sample latency
// reservoir has stopped growing, so the difference is the record and
// little else: at the commit before the flat record this read 233.9
// bytes (232 of them the record) and 0.10 allocations per added query,
// every one of those a cacheSnapshot from Replica.publishCache on a
// cache swap; with the 120-byte record it read 121.9, with the service
// tuples interned into the Result's table (80 bytes) ~82, and with the
// ID and floor moved to columns this index-numbered, floor-free stream
// never allocates (64 bytes) 65.8, and with the arrival and start
// derived from the record (48 bytes) 49.7, and with the model folded
// into the class index and the policy into the flags (40 bytes) 41.7.
// A record that grew back, a column allocated for nothing, or a per-query copy that escaped to the heap
// fails here; the allocation COUNT stays with the two tests above.
func TestMarginalQueryCost(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	reps := newReplicas(t, 4)
	budget := replicaLatHi(reps[0]) * 1.3
	eng, err := New(reps, hotOptions(serving.NewRoundRobin(), budget/3))
	if err != nil {
		t.Fatal(err)
	}
	bytesFor := func(n int) float64 {
		stream, err := workload.Poisson{Rate: 700}.Stream(3)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := eng.RunProcess(n, stream, func(i int, _ float64) sched.Query {
			return sched.Query{ID: i, MaxLatency: budget}
		}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	const short, long = 32_000, 64_000
	bytesFor(short) // warm caches, memos and scratch
	perQuery := (bytesFor(long) - bytesFor(short)) / (long - short)
	if limit := float64(unsafe.Sizeof(Outcome{}) + 8); perQuery > limit {
		t.Errorf("one more query allocates %.1f bytes; want at most the %d-byte record + 8", perQuery, unsafe.Sizeof(Outcome{}))
	}
	t.Logf("%.1f bytes per added query (record %d)", perQuery, unsafe.Sizeof(Outcome{}))
}
