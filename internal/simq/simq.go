// Package simq is SUSHI's virtual-time discrete-event serving engine:
// the one implementation of open-loop queueing semantics for the whole
// stack. An Engine advances a shared virtual clock over a cluster of
// replicas, routing each query at its arrival instant (routers see the
// *virtual* queue depth through the same Replica counters live dispatch
// maintains), applying per-replica bounded FIFO queues with admission
// control, and debiting each query's latency budget by its wait time
// before handing it to SushiSched — the load-aware navigation of the
// accuracy/latency trade-off space the paper motivates (§1).
//
// Because time is virtual, a run is deterministic for deterministic
// seeds and routers, independent of wall-clock speed: heavy-traffic
// scenarios (offered load far above aggregate service capacity, diurnal
// swings, replayed traces) evaluate in milliseconds. Outcomes fold into
// the serving package's accumulators, extended with p50/p95/p99
// end-to-end latency, SLO attainment, goodput and drop counts.
//
// Since the micro-batching refactor the engine's service-starting event
// is the batch FLUSH: an idle replica with queued queries either serves
// immediately (batching off — a flush of one, the classic start-next
// event) or forms a batch of up to Options.Batching.MaxBatch compatible
// queries (same scheduled SubNet, policy and degrade status), flushing
// on full batch or window expiry. One flush is one accelerator pass:
// weights are fetched once and members share start and finish. With
// MaxBatch <= 1 or Window <= 0 the loop is bit-identical per seed to
// the unbatched engine.
//
// The event loop itself is the indexed engine of runner.go/event.go: a
// flat min-heap of packed (time, kind, replica) events with lazy
// invalidation, arrivals streamed from a cursor (or lazily from a
// workload stream via RunProcess), and every hot-path buffer pooled
// across the run — the steady state allocates nothing per query.
//
// Callers enter through New/FromCluster + Run (surfaced publicly as
// sushi.Cluster.Simulate and POST /v1/simulate); a single accelerator is
// a one-replica engine.
package simq

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"sushi/internal/autoscale"
	"sushi/internal/sched"
	"sushi/internal/serving"
)

// Admission selects the bounded-queue overflow policy.
type Admission int

const (
	// Reject refuses the arriving query when the replica's queue is full
	// (load shedding at the door).
	Reject Admission = iota
	// ShedOldest evicts the oldest *queued* query to admit the new one —
	// freshest-first under overload (the stale query would likely miss
	// its deadline anyway).
	ShedOldest
	// Degrade admits the query past the cap but serves it with the
	// fastest SubNet reachable under the replica's current cache column
	// (accuracy floor dropped, budget collapsed) — trading accuracy for
	// survival instead of dropping, SUSHI's core premise.
	Degrade
)

// String implements fmt.Stringer.
func (a Admission) String() string {
	switch a {
	case Reject:
		return "reject"
	case ShedOldest:
		return "shed-oldest"
	case Degrade:
		return "degrade"
	default:
		return fmt.Sprintf("Admission(%d)", int(a))
	}
}

// ParseAdmission maps the HTTP/CLI policy names to Admission values.
func ParseAdmission(name string) (Admission, error) {
	switch name {
	case "", "reject":
		return Reject, nil
	case "shed", "shed-oldest":
		return ShedOldest, nil
	case "degrade":
		return Degrade, nil
	default:
		return 0, fmt.Errorf("simq: unknown admission policy %q (want reject, shed-oldest or degrade)", name)
	}
}

// Batching is the engine's per-replica batch former: serving's one
// batching value, its Window read as virtual seconds. An idle replica
// with a non-empty queue forms a batch of up to MaxBatch queries whose
// Replica.BatchKey equals the head's, flushing on the earlier of
// batch-full and window expiry (Window after the head query's
// arrival). A flush is ONE accelerator pass: weights fetched once,
// members share start and finish. With MaxBatch <= 1 or Window <= 0
// the engine is bit-identical per seed to the unbatched event loop.
type Batching = serving.BatchPolicy

// Options configures an Engine. All times inside the engine are
// virtual seconds; a run is deterministic given deterministic arrival
// seeds and routers.
type Options struct {
	// QueueCap bounds each replica's wait queue in queries (in-flight
	// service not counted); 0 means unbounded. Admission picks the
	// overflow policy.
	QueueCap int
	// Admission is the bounded-queue overflow policy.
	Admission Admission
	// LoadAware debits each query's latency budget by its queueing delay
	// (sched.Query.Debit) before scheduling, steering SushiSched toward
	// faster SubNets under load.
	LoadAware bool
	// Drop abandons queries whose remaining budget is exhausted before
	// service starts.
	Drop bool
	// Router picks the replica at each arrival instant; nil defaults to
	// a fresh round-robin. Use a fresh router per engine — sharing one
	// with live dispatch would race and break reproducibility.
	Router serving.Router
	// Batching is the per-replica batch former (zero value: off).
	Batching Batching
	// Autoscale makes the replica set elastic: the engine keeps between
	// Min and Max replicas admitting queries (the rest Standby/Retired),
	// consulting the policy every Interval virtual seconds — replica
	// lifecycle (boot → admit → drain → retire) becomes first-class
	// events in the run. nil, a nil Policy, or Min == Max leaves the
	// fleet fixed and the run bit-identical to the pre-elastic engine.
	Autoscale *autoscale.Config
}

// Reason classifies why a query was dropped.
type Reason uint8

const (
	// ReasonNone marks a served query.
	ReasonNone Reason = iota
	// ReasonDeadline: the budget expired in the queue (Options.Drop).
	ReasonDeadline
	// ReasonRejected: admission control refused the arrival.
	ReasonRejected
	// ReasonShed: a newer arrival evicted it (ShedOldest).
	ReasonShed
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "served"
	case ReasonDeadline:
		return "deadline"
	case ReasonRejected:
		return "rejected"
	case ReasonShed:
		return "shed"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Result aggregates one open-loop run.
type Result struct {
	// Outcomes align with the arrival-sorted input stream. The records
	// are flat (see Outcome); Service(i) and Timed(i) read one back.
	Outcomes []Outcome
	// Summary folds every replica's engine accumulator: service and E2E
	// percentiles, SLO attainment, goodput, drop counts.
	Summary serving.Summary
	// Queries = Served + Dropped, and DeadlineDrops + Rejected + Shed =
	// Dropped. Degraded counts every degrade-admission (whatever its
	// eventual fate), so it overlaps both Served and Dropped.
	Queries, Served, Dropped                int
	DeadlineDrops, Rejected, Shed, Degraded int
	// OfferedRate is arrivals per virtual second of the arrival span (0
	// for a single-instant stream); Makespan is the virtual time of the
	// last completion in seconds since stream start.
	OfferedRate, Makespan float64
	// ReplicaQueries counts served queries per replica.
	ReplicaQueries []int
	// Recaches counts window-driven cache switches enacted during the
	// run; RecacheSec totals their modeled fill time in virtual seconds
	// (time replicas spent refilling the Persistent Buffer instead of
	// serving), summed in event order as each pass is recorded.
	Recaches   int
	RecacheSec float64
	// ScaleUps and ScaleDowns count enacted replica lifecycle
	// transitions of an elastic run (zero for fixed fleets);
	// ReplicaSeconds integrates admitting capacity over the run — the
	// fleet's cost in replica-seconds of virtual time (replicas x
	// makespan for a fixed fleet).
	ScaleUps, ScaleDowns int
	ReplicaSeconds       float64
	// Router names the dispatch policy used.
	Router string

	// The intern tables Outcome's indices point into: the fleet's model
	// ids in tenant order, each model's SubNet names by table row (both
	// the engine's, shared by its runs), the run's (model, class) pairs
	// (model m's unclassed traffic at index m, then the classed pairs in
	// first-appearance order) and its distinct service tuples, zero
	// first.
	models   []string
	subnets  [][]string
	classes  []classPair
	services []Service
	// idOff and minAcc are the query ID's offset from the arrival index
	// and the accuracy floor's echo, by outcome. Each stays nil until a
	// query brings a nonzero value (by its bits, so a -0 floor counts)
	// and is then allocated at len(Outcomes): a zero slot reads as "ID
	// = index" and "floor +0", so none needs a back-fill.
	idOff  []int64
	minAcc []float64
	// aside holds, by outcome, the arrival and start of each record
	// flagged flagAside: the few whose instants times cannot derive bit
	// for bit (a run's first milliseconds, a sum that rounded). Nil
	// until the first.
	aside map[int]instants
}

// Engine is a virtual-time discrete-event simulator over replica
// serving systems. It is single-threaded: one Run at a time. Runs
// mutate replica accelerator state (caches adapt to the simulated
// traffic), so bit-exact reproduction requires a fresh deployment with
// the same seeds.
type Engine struct {
	reps   []*serving.Replica
	router serving.Router
	opt    Options

	// models, modelIdx and subnets are replica 0's tenant list, its
	// inverse, and each tenant's SubNet names by table row: every replica
	// hosts the same tenants over the same frontiers (New checks), so
	// replica 0 speaks for the fleet. classes is each tenant's unclassed
	// pair, the head of every run's class table. Immutable after New.
	models   []string
	modelIdx map[string]uint16
	subnets  [][]string
	classes  []classPair
}

// New builds an engine over the given replicas.
func New(reps []*serving.Replica, opt Options) (*Engine, error) {
	if len(reps) == 0 {
		return nil, fmt.Errorf("simq: engine needs at least one replica")
	}
	for i, r := range reps {
		if r == nil {
			return nil, fmt.Errorf("simq: nil replica %d", i)
		}
	}
	if opt.QueueCap < 0 {
		return nil, fmt.Errorf("simq: negative queue capacity %d", opt.QueueCap)
	}
	switch opt.Admission {
	case Reject, ShedOldest, Degrade:
	default:
		return nil, fmt.Errorf("simq: unknown admission policy %d", int(opt.Admission))
	}
	if err := opt.Batching.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Autoscale.Validate(); err != nil {
		return nil, err
	}
	if opt.Autoscale.Enabled() && opt.Autoscale.Max > len(reps) {
		return nil, fmt.Errorf("simq: autoscale Max %d exceeds the %d booted replicas", opt.Autoscale.Max, len(reps))
	}
	router := opt.Router
	if router == nil {
		router = serving.NewRoundRobin()
	}
	e := &Engine{reps: reps, router: router, opt: opt}
	if err := e.internFleet(); err != nil {
		return nil, err
	}
	return e, nil
}

// internFleet builds the engine's model and SubNet-name tables from
// replica 0 and refuses a fleet the outcome record cannot describe: one
// wider than the record's indices, or one whose other replicas host
// different tenants or frontiers (a record names its SubNet by model
// and row alone).
func (e *Engine) internFleet() error {
	rows := 0
	for ri, rep := range e.reps {
		var models []string
		var names [][]string
		rep.InspectTenants(func(model string, _ int64, sys *serving.System) {
			sns := sys.Table().SubNets
			ns := make([]string, len(sns))
			for i, sn := range sns {
				ns[i] = sn.Name
			}
			models, names = append(models, model), append(names, ns)
			rows = max(rows, len(ns))
		})
		if ri == 0 {
			e.models, e.subnets = models, names
		} else if !slices.Equal(models, e.models) || !slices.EqualFunc(names, e.subnets, slices.Equal[[]string]) {
			return fmt.Errorf("simq: replica %d hosts other models or frontiers than replica 0 (%v)", ri, e.models)
		}
	}
	if err := checkWidths(len(e.reps), len(e.models), rows, e.opt.Batching); err != nil {
		return err
	}
	e.modelIdx = make(map[string]uint16, len(e.models))
	e.classes = make([]classPair, len(e.models))
	for i, m := range e.models {
		e.modelIdx[m] = uint16(i)
		e.classes[i].model = uint16(i)
	}
	return nil
}

// FromCluster builds an engine over a cluster's replicas.
func FromCluster(c *serving.Cluster, opt Options) (*Engine, error) {
	if c == nil {
		return nil, fmt.Errorf("simq: nil cluster")
	}
	return New(c.Replicas(), opt)
}

// job is one query on its way through the engine: minted by the arrival
// source, copied once into a replica queue, and read there in place
// until its outcome is recorded. q stays as the query arrived (its
// MaxLatency is the budget end-to-end latency is judged against);
// model is q's tenant index and class the outcome record's index of
// q's (model, class) pair.
type job struct {
	q        sched.Query
	arrival  float64
	idx      int
	class    uint16
	model    uint16
	degraded bool
}

// replicaState is one replica's virtual-time view. The wait queue is a
// head-indexed slice reused for the whole run: pops advance qhead, a
// push compacts the live region down before appending when the backing
// array is full, so steady-state queue churn allocates nothing once
// capacity has grown to the high-water mark. Dead slots keep their last
// entry until a push overwrites it; the queue dies with the run.
type replicaState struct {
	queue  []job
	qhead  int
	busy   bool
	freeAt float64
	// flushAt is the pending batch-window expiry — the virtual instant a
	// forming (partial) batch flushes even if it never fills. +Inf when
	// no flush timer is armed (replica busy, queue empty, or batching
	// off).
	flushAt float64
	// inFlight counts the members of the pass currently occupying the
	// replica (1 solo, up to B batched); their reservations release
	// together at completion.
	inFlight int

	// Elastic-fleet accounting (maintained only on autoscaled runs).
	// busySince/busyTotal integrate service time (boot fills included);
	// on/onSince/onTotal integrate admitting-capacity time from boot
	// (or run start) to retirement — the replica-seconds cost metric.
	busySince, busyTotal float64
	on                   bool
	onSince, onTotal     float64
}

// qlen is the number of queued (not in-flight) queries.
func (st *replicaState) qlen() int { return len(st.queue) - st.qhead }

// qfront is the head of the FIFO, in place.
func (st *replicaState) qfront() *job { return &st.queue[st.qhead] }

// qdiscard removes the queue's entries before absolute index k.
func (st *replicaState) qdiscard(k int) {
	st.qhead = k
	if st.qhead == len(st.queue) {
		st.queue, st.qhead = st.queue[:0], 0
	}
}

// qpush appends a copy of j to the tail, compacting the live region
// first when the backing array is full but has dead head slots.
func (st *replicaState) qpush(j *job) {
	if st.qhead > 0 && len(st.queue) == cap(st.queue) {
		n := copy(st.queue, st.queue[st.qhead:])
		st.queue, st.qhead = st.queue[:n], 0
	}
	st.queue = append(st.queue, *j)
}

// Stream pairs a query stream with arrival times (seconds since stream
// start), element-wise.
func Stream(qs []sched.Query, arrivals []float64) ([]serving.TimedQuery, error) {
	if len(qs) != len(arrivals) {
		return nil, fmt.Errorf("simq: %d queries but %d arrivals", len(qs), len(arrivals))
	}
	out := make([]serving.TimedQuery, len(qs))
	for i := range qs {
		out[i] = serving.TimedQuery{Query: qs[i], Arrival: arrivals[i]}
	}
	return out, nil
}

// Run plays the timed stream through the cluster in virtual time and
// returns the per-query outcomes (arrival order) plus aggregates. The
// whole stream is validated before any query is served, so invalid
// input has no side effects on accelerator state.
func (e *Engine) Run(qs []serving.TimedQuery) (*Result, error) {
	jobs := make([]job, len(qs))
	for i := range qs {
		// Arrivals must be finite and non-negative: a NaN breaks the
		// sort, a +Inf arrival would end the event loop with the query
		// forever pending yet counted as served.
		if t := qs[i].Arrival; math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			return nil, fmt.Errorf("simq: invalid arrival %g for query %d", t, qs[i].ID)
		}
		jobs[i] = job{q: qs[i].Query, arrival: qs[i].Arrival}
	}
	// Every generated arrival process yields non-decreasing instants;
	// one linear pass detects that and skips the sort (trace replay
	// stays correct: an out-of-order trace still sorts).
	less := func(i, j int) bool { return jobs[i].arrival < jobs[j].arrival }
	if !sort.SliceIsSorted(jobs, less) {
		sort.SliceStable(jobs, less)
	}
	// Intern upfront, in arrival order: an unknown model (or policy, or
	// one class too many) rejects the whole stream before any query is
	// served — no side effects on accelerator state — and batch keys,
	// per-model accumulator buckets and degrade budgets all see
	// canonical model ids.
	in := &interner{e: e}
	for i := range jobs {
		if err := in.admit(&jobs[i]); err != nil {
			return nil, err
		}
	}
	// The sorted, interned jobs replay through the lazy path: their
	// queries come back canonical, so admitting them again is a no-op.
	k := 0
	return e.run(&processSource{
		n:  len(jobs),
		in: in,
		draw: func() (float64, bool) {
			k++
			return jobs[k-1].arrival, true
		},
		mk: func(i int, _ float64) sched.Query { return jobs[i].q },
	})
}

// RunProcess plays n queries through the cluster with arrival instants
// drawn LAZILY from stream — no materialized arrival slice — and the
// i-th query minted by mk at its arrival instant. stream must yield
// finite, non-negative, non-decreasing instants (every
// workload.ArrivalProcess stream does by construction); a violation
// aborts the run mid-stream with an error, after earlier queries have
// already mutated replica cache state — the documented price of
// laziness.
func (e *Engine) RunProcess(n int, stream func() (float64, bool), mk func(i int, t float64) sched.Query) (*Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("simq: non-positive query count %d", n)
	}
	if stream == nil || mk == nil {
		return nil, fmt.Errorf("simq: RunProcess needs an arrival stream and a query maker")
	}
	return e.run(&processSource{n: n, draw: stream, mk: mk, in: &interner{e: e}})
}

// newResult preallocates the per-run result skeleton.
func (e *Engine) newResult(n int) *Result {
	return &Result{
		Outcomes:       make([]Outcome, n),
		ReplicaQueries: make([]int, len(e.reps)),
		Queries:        n,
		Router:         e.router.Name(),
		models:         e.models,
		subnets:        e.subnets,
		services:       []Service{{}},
	}
}

// newStates builds the per-replica virtual-time views (no flush timer
// armed).
func newStates(n int) []replicaState {
	states := make([]replicaState, n)
	for i := range states {
		states[i].flushAt = math.Inf(1)
	}
	return states
}

// run drives the whole fleet with one runner over src's n queries.
func (e *Engine) run(src *processSource) (*Result, error) {
	n := src.n
	r := &runner{
		e:      e,
		res:    e.newResult(n),
		states: newStates(len(e.reps)),
		accs:   make([]serving.Accumulator, len(e.reps)),
		src:    src,
		admit:  e.reps,
	}
	r.batching = e.opt.Batching.Enabled()
	r.maxB = e.opt.Batching.MaxBatch
	if !r.batching {
		r.maxB = 1
	}
	// Elastic-fleet setup: replicas 0..Min-1 start admitting, the rest
	// Standby (spare capacity, booted cold on a scale-up). Without
	// autoscaling the whole machinery is inert — every replica admits,
	// the router sees exactly the engine's replica slice, and no
	// evaluation events fire, so fixed-fleet runs stay bit-identical.
	if e.opt.Autoscale.Enabled() {
		r.ctl = newElasticState(e.opt.Autoscale, n)
		for i := range e.reps {
			if i < r.ctl.cfg.Min {
				e.reps[i].SetLifecycle(serving.LifecycleActive)
				r.states[i].on, r.states[i].onSince = true, 0
			} else {
				e.reps[i].SetLifecycle(serving.LifecycleStandby)
			}
		}
		// The admitting view gets its own backing array: rebuildAdmit
		// compacts in place, which must never reorder e.reps itself.
		r.admit, r.admitIdx = nil, nil
		r.rebuildAdmit()
	}
	if err := r.run(); err != nil {
		return nil, err
	}
	r.res.classes = src.in.table()
	e.finish(r)
	return r.res, nil
}

// finish folds the per-replica accumulators into the run's aggregates,
// in replica order (drop and flush keep the per-query counters).
func (e *Engine) finish(r *runner) {
	res := r.res
	var merged serving.Accumulator
	for i := range r.accs {
		merged.Merge(&r.accs[i])
	}
	res.Summary = merged.Summary()
	// Every draw was consumed, so the latest one is the last arrival.
	if src := r.src; src.i > 1 {
		if span := src.prev - src.first; span > 0 {
			res.OfferedRate = float64(src.i-1) / span
		}
	}
	// Fleet cost: admitting-capacity integral in replica-seconds. A
	// fixed fleet keeps every replica on for the whole run; an elastic
	// fleet closes each replica's integral at retirement (or here, at
	// the makespan, for replicas still on).
	if r.ctl != nil {
		for i := range r.states {
			if r.states[i].on {
				if d := res.Makespan - r.states[i].onSince; d > 0 {
					r.states[i].onTotal += d
				}
			}
			res.ReplicaSeconds += r.states[i].onTotal
		}
		res.ScaleUps, res.ScaleDowns = r.ctl.scaleUps, r.ctl.scaleDowns
	} else {
		res.ReplicaSeconds = float64(len(e.reps)) * res.Makespan
	}
	res.Summary.ScaleUps = res.ScaleUps
	res.Summary.ScaleDowns = res.ScaleDowns
	res.Summary.ReplicaSeconds = res.ReplicaSeconds
}
