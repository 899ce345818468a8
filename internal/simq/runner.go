package simq

import (
	"fmt"
	"math"

	"sushi/internal/sched"
	"sushi/internal/serving"
)

// arrivalSource feeds the runner its time-ordered arrival stream. The
// two implementations are sliceSource (a materialized, validated,
// model-normalized stream — the Run path) and processSource (arrivals
// drawn lazily from a workload stream — the RunProcess path).
type arrivalSource interface {
	// peek returns the next arrival instant without consuming it (+Inf
	// when exhausted or failed).
	peek() float64
	// next consumes the next arrival: the timed query and its index in
	// the result's Outcomes.
	next() (tq serving.TimedQuery, idx int)
	// err reports a mid-stream generation failure (lazy sources only).
	err() error
	// span reports the first and last consumed arrival instants and the
	// consumed count, for the offered-rate aggregate.
	span() (first, last float64, n int)
}

// sliceSource streams a materialized arrival-ordered slice.
type sliceSource struct {
	qs []serving.TimedQuery
	i  int
}

func (s *sliceSource) peek() float64 {
	if s.i >= len(s.qs) {
		return math.Inf(1)
	}
	return s.qs[s.i].Arrival
}

func (s *sliceSource) next() (serving.TimedQuery, int) {
	idx := s.i
	s.i++
	return s.qs[idx], idx
}

func (s *sliceSource) err() error { return nil }

func (s *sliceSource) span() (float64, float64, int) {
	if len(s.qs) == 0 {
		return 0, 0, 0
	}
	return s.qs[0].Arrival, s.qs[len(s.qs)-1].Arrival, len(s.qs)
}

// processSource draws arrivals lazily from a generator stream, minting
// and model-normalizing each query at its arrival instant. Invalid
// draws (NaN, infinite, negative, decreasing) fail the run mid-stream;
// earlier queries have already mutated replica cache state by then,
// which is the documented price of laziness.
type processSource struct {
	n    int
	i    int
	draw func() (float64, bool)
	mk   func(i int, t float64) sched.Query
	rep0 *serving.Replica

	buffered    bool
	buf         serving.TimedQuery
	prev        float64
	first, last float64
	e           error
}

func (s *processSource) fill() {
	if s.buffered || s.e != nil || s.i >= s.n {
		return
	}
	t, ok := s.draw()
	if !ok {
		s.e = fmt.Errorf("simq: arrival stream exhausted after %d of %d queries", s.i, s.n)
		return
	}
	if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
		s.e = fmt.Errorf("simq: invalid arrival %g for query %d", t, s.i)
		return
	}
	if t < s.prev {
		s.e = fmt.Errorf("simq: arrival %g for query %d precedes its predecessor %g", t, s.i, s.prev)
		return
	}
	s.prev = t
	q := s.mk(s.i, t)
	m, ok := s.rep0.CanonicalModel(q.Model)
	if !ok {
		s.e = &serving.UnknownModelError{Model: q.Model, Have: s.rep0.Models()}
		return
	}
	q.Model = m
	if s.i == 0 {
		s.first = t
	}
	s.last = t
	s.buf = serving.TimedQuery{Query: q, Arrival: t}
	s.buffered = true
}

func (s *processSource) peek() float64 {
	s.fill()
	if !s.buffered {
		return math.Inf(1)
	}
	return s.buf.Arrival
}

func (s *processSource) next() (serving.TimedQuery, int) {
	idx := s.i
	s.i++
	s.buffered = false
	return s.buf, idx
}

func (s *processSource) err() error { return s.e }

func (s *processSource) span() (float64, float64, int) { return s.first, s.last, s.i }

// runner is the engine's hot path: one event loop over the fleet,
// driven by the packed event heap and an arrival source.
//
// All scratch buffers (batch members, debited/offered query slices,
// served outcomes) are reused across flushes: after warm-up the
// steady-state loop allocates nothing per query.
type runner struct {
	e      *Engine
	res    *Result
	states []replicaState
	accs   []serving.Accumulator
	heap   eventHeap
	src    arrivalSource

	ctl      *elasticState
	admit    []*serving.Replica
	admitIdx []int

	batching bool
	maxB     int

	// scratch, reused across flushes
	batch []job
	qbuf  []sched.Query
	obuf  []sched.Query
	sbuf  []serving.Served
}

// validEvent reports whether a popped event still reflects replica
// state (lazy invalidation: stale flush timers are discarded here).
func (r *runner) validEvent(ev event) bool {
	st := &r.states[ev.rep]
	if ev.kind == evComplete {
		return st.busy && st.freeAt == ev.t
	}
	return !st.busy && st.flushAt == ev.t
}

// rebuildAdmit recomputes the router's view — the replicas currently
// admitting queries — after a lifecycle change. admitIdx maps a pick
// back to the engine index (nil = identity, the fixed-fleet fast path).
func (r *runner) rebuildAdmit() {
	r.admit, r.admitIdx = r.admit[:0], r.admitIdx[:0]
	for i, rep := range r.e.reps {
		if rep.Lifecycle() == serving.LifecycleActive {
			r.admit = append(r.admit, rep)
			r.admitIdx = append(r.admitIdx, i)
		}
	}
}

// maybeRetire completes a drain: a Draining replica with no queued or
// in-flight work leaves the fleet (its capacity integral closes) — the
// last lifecycle event of a scale-down.
func (r *runner) maybeRetire(ri int, now float64) {
	if r.ctl == nil {
		return
	}
	st := &r.states[ri]
	if st.busy || st.qlen() > 0 || r.e.reps[ri].Lifecycle() != serving.LifecycleDraining {
		return
	}
	r.e.reps[ri].SetLifecycle(serving.LifecycleRetired)
	st.on = false
	st.onTotal += now - st.onSince
}

// drop records a refused/abandoned query directly into its pooled
// Outcome slot — the Served half stays zero apart from the query echo
// (per-model accounting needs the model id of dropped queries too), and
// no fresh echo is allocated per event.
func (r *runner) drop(ri int, j job, now float64, why Reason) {
	wait := now - j.arrival
	o := &r.res.Outcomes[j.idx]
	*o = Outcome{
		TimedServed: serving.TimedServed{
			Served:  serving.Served{Query: j.q},
			Arrival: j.arrival, Start: now, Finish: now,
			QueueDelay: wait, E2ELatency: wait, Dropped: true,
		},
		Replica:  ri,
		Reason:   why,
		Degraded: j.degraded,
	}
	r.accs[ri].AddTimed(o.TimedServed)
	if r.ctl != nil {
		// Policies see drops as resolved-with-miss: the strongest
		// scale-up signal there is.
		r.ctl.resolved++
	}
}

// keyFor computes the batch-former compatibility key for a queued query
// as it would be served now (after load-aware debiting — that is the
// query the scheduler will actually see).
func (r *runner) keyFor(ri int, j job, wait float64) batchKey {
	k := batchKey{model: j.q.Model, degraded: j.degraded, policy: -1, row: -1}
	if j.q.Policy != nil {
		k.policy = int(*j.q.Policy)
	}
	if j.degraded {
		// Degraded queries all collapse to the fastest SubNet under the
		// current column; any two are compatible.
		return k
	}
	q := j.q
	if r.e.opt.LoadAware {
		q = q.Debit(wait)
	}
	k.row = r.e.reps[ri].ScheduledSubNet(q)
	return k
}

// flush is the engine's one service-starting event: while the replica
// is idle and queries are queued, it either arms the batch window
// (partial batch, window not expired) or pops a batch — deadline-
// expired queries dropping on the way — and starts ONE accelerator
// pass for it. With batching off the batch is always a single query
// and the flush degenerates to the classic start-next-in-FIFO-order
// event, bit-identical to the pre-batching engine.
func (r *runner) flush(ri int, now float64) error {
	st := &r.states[ri]
	st.flushAt = math.Inf(1)
	for !st.busy && st.qlen() > 0 {
		// A partial batch may keep waiting for the window to fill —
		// anchored at the head query's arrival, so no query waits on
		// the former for more than Window.
		if r.batching && st.qlen() < r.maxB {
			if deadline := st.qfront().arrival + r.e.opt.Batching.Window; now < deadline {
				st.flushAt = deadline
				r.heap.push(event{t: deadline, kind: evFlush, rep: int32(ri)})
				return nil
			}
		}
		// Pop the batch: the longest compatible prefix, up to B.
		// Deadline-expired queries drop as they surface, exactly as
		// the unbatched loop dropped them at service start.
		r.batch = r.batch[:0]
		var headKey batchKey
		for len(r.batch) < r.maxB && st.qlen() > 0 {
			j := st.qfront()
			wait := now - j.arrival
			if r.e.opt.Drop && j.budget > 0 && j.budget-wait <= 0 {
				st.qpop()
				r.e.reps[ri].Release()
				r.drop(ri, j, now, ReasonDeadline)
				continue
			}
			if r.batching {
				key := r.keyFor(ri, j, wait)
				if len(r.batch) == 0 {
					headKey = key
				} else if key != headKey {
					break
				}
			}
			st.qpop()
			r.batch = append(r.batch, j)
		}
		if len(r.batch) == 0 {
			// Drops consumed the head; re-evaluate the window against
			// the new head.
			continue
		}

		n := len(r.batch)
		r.sbuf = growServed(r.sbuf, n)
		served := r.sbuf
		r.qbuf, r.obuf = r.qbuf[:0], r.obuf[:0]
		for _, j := range r.batch {
			q := j.q
			if r.e.opt.LoadAware {
				q = q.Debit(now - j.arrival)
			}
			r.qbuf = append(r.qbuf, q)
			r.obuf = append(r.obuf, j.q)
		}
		// A window-driven re-cache enacted after this flush occupies
		// the accelerator for the PB fill: the switch cost extends the
		// replica's busy interval in virtual time (the next flush
		// waits) without inflating any member's own E2E latency. A
		// flush charges at most one re-cache.
		recache, err := r.e.reps[ri].ServeBatchVirtualInto(r.qbuf, r.obuf, r.batch[0].degraded, served)
		if err != nil {
			for range r.batch {
				r.e.reps[ri].Release()
			}
			return err
		}
		// Every member shares the pass: one start, one finish.
		finish := now + served[0].Latency
		for i := range r.batch {
			j := &r.batch[i]
			s := served[i]
			e2e := finish - j.arrival
			// SLO attainment for open-loop serving judges end-to-end
			// time against the original budget.
			s.LatencyMet = j.budget <= 0 || e2e <= j.budget
			o := &r.res.Outcomes[j.idx]
			*o = Outcome{
				TimedServed: serving.TimedServed{
					Served:  s,
					Arrival: j.arrival, Start: now, Finish: finish,
					QueueDelay: now - j.arrival, E2ELatency: e2e,
				},
				Replica:  ri,
				Degraded: j.degraded,
				Batch:    n,
			}
			if i == n-1 {
				o.RecacheSec = recache
			}
			r.accs[ri].AddTimed(o.TimedServed)
			r.res.ReplicaQueries[ri]++
			if r.ctl != nil {
				r.ctl.resolved++
				if s.LatencyMet {
					r.ctl.sloMet++
				}
			}
		}
		if r.batching {
			r.accs[ri].ObserveBatch(n)
		}
		st.busy, st.freeAt, st.inFlight = true, finish+recache, n
		st.busySince = now
		r.heap.push(event{t: st.freeAt, kind: evComplete, rep: int32(ri)})
	}
	return nil
}

// arrive routes one arrival against the admitting set and admits it.
func (r *runner) arrive(tq serving.TimedQuery, idx int) error {
	j := job{q: tq.Query, arrival: tq.Arrival, budget: tq.MaxLatency, idx: idx}
	if r.ctl != nil {
		r.ctl.arrivals++
	}
	ri := r.e.router.Pick(tq.Query, r.admit)
	if ri < 0 || ri >= len(r.admit) {
		ri = 0
	}
	if r.admitIdx != nil {
		ri = r.admitIdx[ri]
	}
	st := &r.states[ri]
	if st.busy && r.e.opt.QueueCap > 0 && st.qlen() >= r.e.opt.QueueCap {
		switch r.e.opt.Admission {
		case Reject:
			r.drop(ri, j, tq.Arrival, ReasonRejected)
			return nil
		case ShedOldest:
			old := st.qpop()
			r.e.reps[ri].Release()
			r.drop(ri, old, tq.Arrival, ReasonShed)
		case Degrade:
			j.degraded = true
		}
	}
	r.e.reps[ri].Reserve()
	st.qpush(j)
	if !st.busy {
		return r.flush(ri, tq.Arrival)
	}
	return nil
}

// run advances the event loop until the stream is exhausted and no
// event is pending.
func (r *runner) run() error {
	for {
		// Discard stale events to find the true next event.
		var top event
		hasTop := false
		for r.heap.len() > 0 {
			top = r.heap.top()
			if r.validEvent(top) {
				hasTop = true
				break
			}
			r.heap.pop()
		}
		at := r.src.peek()
		if !hasTop && math.IsInf(at, 1) {
			// Autoscale evaluations are only considered while work
			// remains, so the cadence never keeps a finished run alive.
			if r.ctl != nil && r.ctl.evalsLeft == 0 {
				return &EvalLimitError{Interval: r.ctl.cfg.Interval, Queries: r.res.Queries}
			}
			return r.src.err()
		}
		// An elastic run out of evaluation budget keeps the fleet it has
		// and drains, so every reservation on the (shared) replicas is
		// released before the limit is reported.
		et := math.Inf(1)
		if r.ctl != nil && r.ctl.evalsLeft > 0 {
			et = r.ctl.nextEval
		}
		// Heap events (completions, then window expiries — the heap
		// order) fire before autoscale evaluations, which fire before
		// arrivals at the same instant: a query arriving exactly as the
		// server frees starts with zero wait, matching sequential FIFO
		// semantics, and a batch whose window closes as the server
		// frees flushes with the post-completion queue.
		if hasTop && top.t <= at && top.t <= et {
			r.heap.pop()
			ri := int(top.rep)
			if top.kind == evComplete {
				st := &r.states[ri]
				st.busy = false
				st.busyTotal += top.t - st.busySince
				for ; st.inFlight > 0; st.inFlight-- {
					r.e.reps[ri].Release()
				}
			}
			if err := r.flush(ri, top.t); err != nil {
				return err
			}
			r.maybeRetire(ri, top.t)
			continue
		}
		if r.ctl != nil && et <= at {
			// Autoscale evaluation: after completions and window
			// expiries, before arrivals at the same instant. The policy
			// sees the closed window's metrics; enacted transitions are
			// lifecycle events at this very instant.
			r.ctl.evalsLeft--
			r.evaluate(et)
			r.ctl.nextEval += r.ctl.cfg.Interval
			continue
		}
		if err := r.arrive(r.src.next()); err != nil {
			return err
		}
	}
}

// growServed returns a length-n slice reusing buf's backing array when
// it is large enough.
func growServed(buf []serving.Served, n int) []serving.Served {
	if cap(buf) < n {
		return make([]serving.Served, n, n*2)
	}
	return buf[:n]
}
