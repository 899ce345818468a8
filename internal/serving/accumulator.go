package serving

import (
	"maps"
	"slices"
	"sort"
)

// maxLatencySamples caps each per-accumulator latency reservoir. Streams
// up to the cap yield exact percentiles; beyond it, reservoir sampling
// keeps memory and read cost bounded for long-running servers at the
// price of approximate P50/P95/P99 (every other aggregate stays exact).
const maxLatencySamples = 4096

// reservoir is a bounded uniform sample of a latency stream (Algorithm R
// once the cap is reached). The replacement stream is a deterministic
// xorshift64, so seeded runs stay reproducible. The zero value is ready.
type reservoir struct {
	// xs holds the samples; seen counts every value offered.
	xs   []float64
	seen int
	rng  uint64
}

// observe records one value.
func (r *reservoir) observe(x float64) {
	r.seen++
	if len(r.xs) < maxLatencySamples {
		r.xs = append(r.xs, x)
		return
	}
	if r.rng == 0 {
		r.rng = 0x9E3779B97F4A7C15
	}
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if j := int(r.rng % uint64(r.seen)); j < maxLatencySamples {
		r.xs[j] = x
	}
}

// merge folds another reservoir's content in. While both sides are exact
// (under the cap), so is the merge; once either side sampled, the merged
// reservoir draws from each side proportionally to its traffic (seen),
// so percentiles stay traffic-weighted — a near-idle replica cannot
// dominate the cluster's folded P99.
func (r *reservoir) merge(b *reservoir) {
	exact := r.seen == len(r.xs) && b.seen == len(b.xs)
	total := r.seen + b.seen
	if exact || total == 0 {
		r.xs = append(r.xs, b.xs...)
		r.seen = total
		return
	}
	target := maxLatencySamples
	if total < target {
		target = total
	}
	// Proportional draw; reservoir samples are exchangeable, so a prefix
	// is itself a uniform sample (and keeps the merge deterministic).
	na := int(float64(target) * float64(r.seen) / float64(total))
	if na > len(r.xs) {
		na = len(r.xs)
	}
	nb := target - na
	if nb > len(b.xs) {
		nb = len(b.xs)
	}
	r.xs = append(r.xs[:na:na], b.xs[:nb]...)
	r.seen = total
}

// snapshot deep-copies the reservoir.
func (r *reservoir) snapshot() reservoir {
	cp := *r
	cp.xs = append([]float64(nil), r.xs...)
	return cp
}

// sorted returns a sorted copy of the samples.
func (r *reservoir) sorted() []float64 {
	xs := append([]float64(nil), r.xs...)
	sort.Float64s(xs)
	return xs
}

// Accumulator folds served outcomes into running aggregates without
// retaining the full []Served. Each cluster replica owns one (updated
// under the replica's lock) for live traffic, and the simq engine owns
// one per replica for virtual-time runs; readers fold snapshots instead
// of funneling every query through a global mutex. The zero value is
// ready to use. Not safe for concurrent use.
type Accumulator struct {
	queries                                   int
	sumLat, sumAcc, sumHit                    float64
	latMet, accMet, feasible, swaps, recaches int
	hitBytes                                  int64
	energyJ                                   float64
	// lats samples individual service latencies for percentile folding.
	lats reservoir

	// Open-loop extensions (fed by AddOpenLoop and AddDropped; zero for
	// closed-loop use).
	// dropped counts abandoned queries, e2eMet the queries that finished
	// inside their original budget; e2e samples end-to-end latencies of
	// served queries; the arrival/finish span yields goodput.
	dropped          int
	e2eMet           int
	sumE2E, sumQueue float64
	e2e              reservoir
	spanSet          bool
	minArrival       float64
	maxFinish        float64

	// Batch occupancy (fed by ObserveBatch; zero when micro-batching is
	// off): batches counts accelerator passes, sumBatch their total
	// member count, maxBatch the largest flush.
	batches, sumBatch, maxBatch int

	// perModel buckets the same aggregates by model id on multi-tenant
	// streams (lazily allocated; nil for single-model streams, whose
	// queries carry an empty model id). Children never have children.
	perModel map[string]*Accumulator

	// perClass buckets the same aggregates by SLO class on cohort
	// streams (lazily allocated; nil while every query is unclassed).
	// Like perModel, children never have children.
	perClass map[string]*Accumulator
}

// bucket returns (allocating on first use) the child accumulator for
// key in one breakdown, a.perModel or a.perClass.
func bucket(breakdown *map[string]*Accumulator, key string) *Accumulator {
	if *breakdown == nil {
		*breakdown = make(map[string]*Accumulator)
	}
	b := (*breakdown)[key]
	if b == nil {
		b = &Accumulator{}
		(*breakdown)[key] = b
	}
	return b
}

// ObserveBatch records one micro-batch flush of n members (n = 1 for a
// solo serve when batching is enabled). Callers fold it once per
// accelerator pass, alongside the per-member Add/AddOpenLoop calls.
func (a *Accumulator) ObserveBatch(n int) {
	if n <= 0 {
		return
	}
	a.batches++
	a.sumBatch += n
	if n > a.maxBatch {
		a.maxBatch = n
	}
}

// add folds one closed-loop outcome (into the cluster-wide aggregates
// and, when the query carries a model id or an SLO class, that bucket).
// Empty keys never allocate buckets: a single-model replica normalizes
// queries to the model id "", and unclassed traffic carries no class.
func (a *Accumulator) add(r *Served) {
	a.addServed(r)
	if m := r.Query.Model; m != "" {
		bucket(&a.perModel, m).addServed(r)
	}
	if cl := r.Query.Class; cl != "" {
		bucket(&a.perClass, cl).addServed(r)
	}
}

// addServed folds one outcome into THIS accumulator only.
func (a *Accumulator) addServed(r *Served) {
	a.queries++
	a.sumLat += r.Latency
	a.sumAcc += r.Accuracy
	a.sumHit += r.HitRatio
	a.hitBytes += r.HitBytes
	a.energyJ += r.OffChipEnergyJ
	if r.LatencyMet {
		a.latMet++
	}
	if r.AccuracyMet {
		a.accMet++
	}
	if r.Feasible {
		a.feasible++
	}
	if r.CacheSwapped {
		a.swaps++
	}
	if r.Recached {
		a.recaches++
	}
	a.lats.observe(r.Latency)
}

// AddOpenLoop folds one served open-loop query: the service aggregates
// of r (its LatencyMet is already end-to-end, judged by the engine)
// plus queueing telemetry — E2E latency reservoir, queue delay, and the
// arrival/finish span goodput is computed over. The engine calls it
// with a pointer into its own scratch; r is only read.
func (a *Accumulator) AddOpenLoop(r *Served, arrival, finish, queueDelay, e2e float64) {
	a.addTimed(r, arrival, finish, queueDelay, e2e)
	if m := r.Query.Model; m != "" {
		bucket(&a.perModel, m).addTimed(r, arrival, finish, queueDelay, e2e)
	}
	if cl := r.Query.Class; cl != "" {
		bucket(&a.perClass, cl).addTimed(r, arrival, finish, queueDelay, e2e)
	}
}

// AddDropped folds one abandoned open-loop query. It carries its model
// id and class so per-model and per-class SLO and tail latency stay
// honest about drops.
func (a *Accumulator) AddDropped(model, class string, arrival, finish float64) {
	a.addDropped(arrival, finish)
	if model != "" {
		bucket(&a.perModel, model).addDropped(arrival, finish)
	}
	if class != "" {
		bucket(&a.perClass, class).addDropped(arrival, finish)
	}
}

// addTimed folds one served open-loop query into THIS accumulator only.
func (a *Accumulator) addTimed(r *Served, arrival, finish, queueDelay, e2e float64) {
	a.addServed(r)
	if r.LatencyMet {
		a.e2eMet++
	}
	a.sumE2E += e2e
	a.sumQueue += queueDelay
	a.e2e.observe(e2e)
	a.span(arrival, finish)
}

// addDropped folds one abandoned query into THIS accumulator only.
func (a *Accumulator) addDropped(arrival, finish float64) {
	a.queries++
	a.dropped++
	a.span(arrival, finish)
}

// span widens the arrival/finish span by one query.
func (a *Accumulator) span(arrival, finish float64) {
	if !a.spanSet || arrival < a.minArrival {
		a.minArrival = arrival
	}
	if !a.spanSet || finish > a.maxFinish {
		a.maxFinish = finish
	}
	a.spanSet = true
}

// Merge folds another accumulator's content into a (model buckets
// merge by key).
func (a *Accumulator) Merge(b *Accumulator) {
	a.merge(b)
	for m, bc := range b.perModel {
		bucket(&a.perModel, m).merge(bc)
	}
	for cl, bc := range b.perClass {
		bucket(&a.perClass, cl).merge(bc)
	}
}

// merge folds b's own aggregates (not its model buckets) into a.
func (a *Accumulator) merge(b *Accumulator) {
	a.queries += b.queries
	a.sumLat += b.sumLat
	a.sumAcc += b.sumAcc
	a.sumHit += b.sumHit
	a.hitBytes += b.hitBytes
	a.energyJ += b.energyJ
	a.latMet += b.latMet
	a.accMet += b.accMet
	a.feasible += b.feasible
	a.swaps += b.swaps
	a.recaches += b.recaches
	a.lats.merge(&b.lats)

	a.dropped += b.dropped
	a.e2eMet += b.e2eMet
	a.sumE2E += b.sumE2E
	a.sumQueue += b.sumQueue
	a.e2e.merge(&b.e2e)
	a.batches += b.batches
	a.sumBatch += b.sumBatch
	if b.maxBatch > a.maxBatch {
		a.maxBatch = b.maxBatch
	}
	if b.spanSet {
		if !a.spanSet || b.minArrival < a.minArrival {
			a.minArrival = b.minArrival
		}
		if !a.spanSet || b.maxFinish > a.maxFinish {
			a.maxFinish = b.maxFinish
		}
		a.spanSet = true
	}
}

// Snapshot returns a deep copy safe to merge after the lock is released.
func (a *Accumulator) Snapshot() *Accumulator {
	cp := *a
	cp.lats = a.lats.snapshot()
	cp.e2e = a.e2e.snapshot()
	if a.perModel != nil {
		cp.perModel = make(map[string]*Accumulator, len(a.perModel))
		for m, b := range a.perModel {
			cp.perModel[m] = b.Snapshot()
		}
	}
	if a.perClass != nil {
		cp.perClass = make(map[string]*Accumulator, len(a.perClass))
		for cl, b := range a.perClass {
			cp.perClass[cl] = b.Snapshot()
		}
	}
	return &cp
}

// Summary renders the accumulated aggregates (percentiles are
// sample-exact up to maxLatencySamples latencies, reservoir-approximate
// beyond); Summarize is this fold over a closed-loop stream. Averages
// are over served queries; SLO fractions are over all queries, so drops
// count as misses.
func (a *Accumulator) Summary() Summary {
	s := Summary{Queries: a.queries, Dropped: a.dropped}
	if a.queries == 0 {
		return s
	}
	n := float64(a.queries)
	served := a.queries - a.dropped
	if served > 0 {
		ns := float64(served)
		s.AvgLatency = a.sumLat / ns
		s.AvgAccuracy = a.sumAcc / ns
		s.AvgHitRatio = a.sumHit / ns
	}
	s.HitBytes = a.hitBytes
	s.OffChipEnergyJ = a.energyJ
	s.LatencySLO = float64(a.latMet) / n
	s.AccuracySLO = float64(a.accMet) / n
	s.FeasibleFraction = float64(a.feasible) / n
	s.CacheSwaps = a.swaps
	s.Recaches = a.recaches
	// Percentiles stay zero (not NaN) when every query was dropped, so
	// summaries remain JSON-marshalable.
	if lats := a.lats.sorted(); len(lats) > 0 {
		s.P50Latency = percentile(lats, 0.50)
		s.P95Latency = percentile(lats, 0.95)
		s.P99Latency = percentile(lats, 0.99)
	}
	if a.dropped > 0 || a.e2e.seen > 0 {
		if served > 0 {
			ns := float64(served)
			s.AvgE2E = a.sumE2E / ns
			s.AvgQueueDelay = a.sumQueue / ns
		}
		if e2e := a.e2e.sorted(); len(e2e) > 0 {
			s.P50E2E = percentile(e2e, 0.50)
			s.P95E2E = percentile(e2e, 0.95)
			s.P99E2E = percentile(e2e, 0.99)
		}
		s.E2ESLO = float64(a.e2eMet) / n
		if span := a.maxFinish - a.minArrival; a.spanSet && span > 0 {
			s.Goodput = float64(a.e2eMet) / span
		}
	}
	if a.batches > 0 {
		s.Batches = a.batches
		s.AvgBatchSize = float64(a.sumBatch) / float64(a.batches)
		s.MaxBatchSize = a.maxBatch
	}
	for _, m := range slices.Sorted(maps.Keys(a.perModel)) {
		s.PerModel = append(s.PerModel, ModelSummary{Model: m, Summary: a.perModel[m].Summary()})
	}
	for _, cl := range slices.Sorted(maps.Keys(a.perClass)) {
		s.PerClass = append(s.PerClass, ClassSummary{Class: cl, Summary: a.perClass[cl].Summary()})
	}
	if len(s.PerClass) > 0 {
		s.FairnessJain = classFairness(s.PerClass)
	}
	return s
}
