package simq

import (
	"fmt"
	"math"

	"sushi/internal/sched"
	"sushi/internal/serving"
)

// Outcome is one query's fate, as a flat, fixed-size record without a
// single pointer: a Result's Outcomes slice is the run's memory, so it
// is allocated as one block the collector never scans, and the runner
// fills each record exactly once, in place (fill). Numbers are the
// engine's float64s bit for bit; small integers are narrowed to widths
// the engine checks a configuration against before it runs (see
// checkWidths); strings and the service outcome are indices into tables
// the Result owns. The query's ID and accuracy floor are not in the
// record: nearly every stream numbers its queries by arrival index and
// sets no floor, so the Result keeps them in columns allocated only
// once a run needs them (see Result). Nor are the arrival and start
// instants: each is derived from the record (see Result.times), and
// the Result keeps the rare pair the derivation would not reproduce bit
// for bit aside. (*Result).Timed re-inflates a record into the
// serving.TimedServed shape.
type Outcome struct {
	// Finish is the absolute virtual instant the query's pass ended.
	// Members of one flush share it (and their start): the batch is one
	// accelerator pass. A dropped query starts and finishes at the drop
	// instant.
	Finish float64
	// E2ELatency is Finish - arrival (queueing + service).
	E2ELatency float64
	// MaxLatency echoes the latency budget the query was served under
	// (after load-aware debiting or the degrade rewrite); a dropped query
	// echoes it as it arrived. Timed reads the accuracy floor's echo.
	MaxLatency float64
	// svc indexes the Result's service table; 0 for a dropped query.
	svc uint32
	// Row is the served SubNet's table row.
	Row uint16
	// Replica is the replica index the router picked.
	Replica uint16
	// Batch is the micro-batch size the query was served in (1 for solo
	// service, 0 for dropped queries).
	Batch uint16
	// class indexes the Result's table of (model, class) pairs, whose
	// first entries are each model's unclassed traffic; flags packs the
	// five serving.Served booleans, flagAside and the per-query
	// sched.Policy override.
	class uint16
	flags uint8
	// Reason is ReasonNone for served queries.
	Reason Reason
	// Degraded reports the degrade-to-fastest escape valve fired.
	Degraded bool
	// Dropped reports the query was abandoned: its deadline passed
	// before service could begin, or admission control rejected or shed
	// it.
	Dropped bool
}

// Service is a served query's pass result. A stream keeps landing on a
// few (SubNet, cached SubGraph) pairs, so a Result keeps each distinct
// tuple once, bit for bit, the zero tuple first. A pass's non-first
// members fetch no weights: their HitBytes and energy are zero.
type Service struct {
	Latency, Accuracy, HitRatio, OffChipEnergyJ float64
	HitBytes                                    int64
	// RecacheSec is the modeled switch cost (virtual seconds) of the
	// re-cache this query's completion triggered: it delays the
	// replica's next start past Finish but is not in this query's
	// E2ELatency. A flush charges it once, on its last member.
	RecacheSec float64
}

// svcKey is a Service's bits: the table tells +0 from -0.
type svcKey [6]uint64

func (s *Service) key() svcKey {
	return svcKey{math.Float64bits(s.Latency), math.Float64bits(s.Accuracy), math.Float64bits(s.HitRatio),
		math.Float64bits(s.OffChipEnergyJ), uint64(s.HitBytes), math.Float64bits(s.RecacheSec)}
}

// svcSlot hashes k to one of serviceIndex's 256 front slots.
func svcSlot(k *svcKey) uint8 {
	return uint8((k[0] + k[1] + k[2] + k[3] + k[4] + k[5]) * 0x9e3779b97f4a7c15 >> 56)
}

// serviceIndex interns one run's tuples into its service table: a
// direct-mapped front of (tuple, table index) pairs answers repeats,
// and the exact map, not an append, answers a front miss. A zero front
// slot maps the zero tuple to entry 0, as it should.
type serviceIndex struct {
	front [256]struct {
		k svcKey
		i uint32
	}
	exact map[svcKey]uint32
}

// intern returns the index of s's tuple, charged recache, in *tab.
func (x *serviceIndex) intern(tab *[]Service, s *serving.Served, recache float64) uint32 {
	sv := Service{s.Latency, s.Accuracy, s.HitRatio, s.OffChipEnergyJ, s.HitBytes, recache}
	k := sv.key()
	f := &x.front[svcSlot(&k)]
	if f.k == k {
		return f.i
	}
	if x.exact == nil {
		x.exact = map[svcKey]uint32{{}: 0}
	}
	i, ok := x.exact[k]
	if !ok {
		i = uint32(len(*tab))
		*tab = append(*tab, sv)
		x.exact[k] = i
	}
	f.k, f.i = k, i
	return i
}

// The serving.Served booleans, packed into Outcome.flags.
const (
	flagFeasible = 1 << iota
	flagLatencyMet
	flagAccuracyMet
	flagCacheSwapped
	flagRecached
	// flagAside: the record's arrival and start are kept in
	// Result.aside, not derived.
	flagAside
	// The top two bits hold the query's sched.Policy override plus one,
	// 0 for none.
	policyShift = iota
	policyMask  = 3 << policyShift
)

// The policy bits hold every valid sched.Policy plus one: this fails to
// compile once sched.Policy.Valid admits a policy they cannot.
const _ = uint(policyMask>>policyShift - 1 - sched.MinEnergy + sched.StrictAccuracy)

// What the record's narrowed fields can hold. An engine refuses a
// configuration that could exceed one (checkWidths, interner.admit)
// instead of truncating it.
const (
	maxBatchMembers = math.MaxUint16     // Outcome.Batch
	maxReplicas     = math.MaxUint16 + 1 // Outcome.Replica is an index
	maxRows         = math.MaxUint16 + 1 // Outcome.Row is an index
	maxClasses      = math.MaxUint16 + 1 // Outcome.class indexes (model, class) pairs
	maxModels       = maxClasses         // each takes a pair for its unclassed traffic
)

// checkWidths refuses a fleet or batch former whose counts the outcome
// record cannot index.
func checkWidths(replicas, models, rows int, b Batching) error {
	for _, w := range []struct {
		n, max int
		what   string
	}{
		{replicas, maxReplicas, "replicas"},
		{models, maxModels, "co-hosted models"},
		{rows, maxRows, "frontier SubNets in one latency table"},
	} {
		if w.n > w.max {
			return fmt.Errorf("simq: %d %s, but the outcome record indexes at most %d", w.n, w.what, w.max)
		}
	}
	if b.Enabled() && b.MaxBatch > maxBatchMembers {
		return fmt.Errorf("simq: Batching.MaxBatch %d, but the outcome record counts at most %d members", b.MaxBatch, maxBatchMembers)
	}
	return nil
}

// fill writes the fate of queued query j into its (still zero) record:
// served by replica ri as s (tuple svc) in a pass of n members over
// [start, finish], or — s nil — dropped at start == finish for reason
// why. A drop carries the query's echo and no service field. The
// arrival and start are set aside only if times would not derive them
// bit for bit.
func (r *Result) fill(j *job, s *serving.Served, svc uint32, ri int, start, finish float64, why Reason, n int) {
	o, q := &r.Outcomes[j.idx], &j.q
	if s != nil {
		q = &s.Query
		o.Row, o.svc = uint16(s.Row), svc
		if s.Feasible {
			o.flags |= flagFeasible
		}
		if s.LatencyMet {
			o.flags |= flagLatencyMet
		}
		if s.AccuracyMet {
			o.flags |= flagAccuracyMet
		}
		if s.CacheSwapped {
			o.flags |= flagCacheSwapped
		}
		if s.Recached {
			o.flags |= flagRecached
		}
	}
	if off := int64(q.ID) - int64(j.idx); off != 0 {
		if r.idOff == nil {
			r.idOff = make([]int64, len(r.Outcomes))
		}
		r.idOff[j.idx] = off
	}
	if math.Float64bits(q.MinAccuracy) != 0 {
		if r.minAcc == nil {
			r.minAcc = make([]float64, len(r.Outcomes))
		}
		r.minAcc[j.idx] = q.MinAccuracy
	}
	o.MaxLatency = q.MaxLatency
	if q.Policy != nil {
		o.flags |= uint8(*q.Policy+1) << policyShift
	}
	o.Finish, o.E2ELatency = finish, finish-j.arrival
	derived := finish
	if s != nil {
		derived -= s.Latency
	}
	if math.Float64bits(finish-o.E2ELatency) != math.Float64bits(j.arrival) || math.Float64bits(derived) != math.Float64bits(start) {
		o.flags |= flagAside
		if r.aside == nil {
			r.aside = make(map[int]instants)
		}
		r.aside[j.idx] = instants{j.arrival, start}
	}
	o.Replica, o.Batch = uint16(ri), uint16(n)
	o.class = j.class
	o.Reason, o.Degraded, o.Dropped = why, j.degraded, s == nil
}

// Service returns record i's pass result, zero for a dropped query.
func (r *Result) Service(i int) Service { return r.services[r.Outcomes[i].svc] }

// instants is a record's arrival and start, kept aside.
type instants struct{ arrival, start float64 }

// times returns record i's arrival and start instants. A served query
// starts its service latency before it finishes, a dropped one at its
// finish, and every query arrives its E2ELatency before it finishes;
// fill set aside the pairs that those subtractions do not reproduce
// (an arrival earlier than its own E2ELatency, a start whose sum with
// the latency rounded), so the instants come back as the engine's
// float64s. A flag without its entry reads as derived (Check reports
// it).
func (r *Result) times(i int) (arrival, start float64) {
	o := &r.Outcomes[i]
	if o.flags&flagAside != 0 {
		if t, ok := r.aside[i]; ok {
			return t.arrival, t.start
		}
	}
	start = o.Finish
	if !o.Dropped {
		start -= r.services[o.svc].Latency
	}
	return o.Finish - o.E2ELatency, start
}

// Timed re-inflates record i into the full serving.TimedServed shape:
// the query echo with its model id, SLO class and policy override, the
// served SubNet's name, its arrival and start instants, and QueueDelay.
func (r *Result) Timed(i int) serving.TimedServed {
	o := &r.Outcomes[i]
	sv := &r.services[o.svc]
	c := &r.classes[o.class]
	arrival, start := r.times(i)
	id := int64(i)
	if r.idOff != nil {
		id += r.idOff[i]
	}
	t := serving.TimedServed{
		Served: serving.Served{
			Query: sched.Query{
				ID:         int(id),
				Model:      r.models[c.model],
				Class:      c.class,
				MaxLatency: o.MaxLatency,
			},
			Row:            int(o.Row),
			Latency:        sv.Latency,
			Accuracy:       sv.Accuracy,
			Feasible:       o.flags&flagFeasible != 0,
			LatencyMet:     o.flags&flagLatencyMet != 0,
			AccuracyMet:    o.flags&flagAccuracyMet != 0,
			CacheSwapped:   o.flags&flagCacheSwapped != 0,
			Recached:       o.flags&flagRecached != 0,
			HitRatio:       sv.HitRatio,
			HitBytes:       sv.HitBytes,
			OffChipEnergyJ: sv.OffChipEnergyJ,
		},
		Arrival: arrival, Start: start, Finish: o.Finish,
		QueueDelay: start - arrival, E2ELatency: o.E2ELatency,
		Dropped: o.Dropped,
	}
	if r.minAcc != nil {
		t.Query.MinAccuracy = r.minAcc[i]
	}
	if p := o.flags >> policyShift; p != 0 {
		pol := sched.Policy(p - 1)
		t.Query.Policy = &pol
	}
	if !o.Dropped {
		t.SubNet = r.subnets[c.model][o.Row]
	}
	if o.Batch > 1 {
		// serving.Served.Batch is 0 for a solo pass.
		t.Batch = int(o.Batch)
	}
	return t
}

// classPair is one entry of a run's class table: a model index and an
// SLO class ("" for the model's unclassed traffic).
type classPair struct {
	model uint16
	class string
}

// interner resolves each arriving query's strings to the indices its
// outcome record will carry: the model against the engine's fixed
// tenant list, the (model, SLO class) pair against a table that starts
// with the engine's unclassed pairs (index m is model m's) and grows in
// first-appearance order (so two runs of one stream build equal
// tables).
type interner struct {
	e *Engine
	// classes is nil, read as the engine's unclassed pairs, until the
	// first classed query.
	classes []classPair
	byPair  map[classPair]uint16
}

// table returns the run's class table.
func (in *interner) table() []classPair {
	if in.classes == nil {
		return in.e.classes
	}
	return in.classes
}

// admit normalizes j's model id to the tenant's canonical name and sets
// its model and class indices. It refuses what the engine or the record
// cannot represent: a model no replica hosts, a policy override the
// scheduler does not know, one (model, class) pair too many.
func (in *interner) admit(j *job) error {
	q := &j.q
	if q.Model != "" {
		mi, ok := in.e.modelIdx[q.Model]
		if !ok {
			return &serving.UnknownModelError{Model: q.Model, Have: in.e.models}
		}
		j.model = mi
	}
	q.Model = in.e.models[j.model]
	if p := q.Policy; p != nil && !p.Valid() {
		return fmt.Errorf("simq: query %d: unknown policy %v", q.ID, *p)
	}
	j.class = j.model
	if q.Class == "" {
		return nil
	}
	k := classPair{j.model, q.Class}
	ci, ok := in.byPair[k]
	if !ok {
		tab := in.table()
		if len(tab) == maxClasses {
			return fmt.Errorf("simq: query %d brings SLO class %q of model %q, but the outcome record indexes at most %d (model, class) pairs",
				q.ID, q.Class, q.Model, maxClasses-len(in.e.models))
		}
		if in.byPair == nil {
			in.byPair = make(map[classPair]uint16)
		}
		// The engine's table is full to capacity, so the first append
		// copies it.
		ci = uint16(len(tab))
		in.classes = append(tab, k)
		in.byPair[k] = ci
	}
	j.class = ci
	return nil
}
