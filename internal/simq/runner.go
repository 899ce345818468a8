package simq

import (
	"fmt"
	"math"

	"sushi/internal/sched"
	"sushi/internal/serving"
)

// processSource feeds the runner arrivals drawn lazily from a stream,
// minting and interning each query at its arrival instant. Invalid
// draws (NaN, infinite, negative, decreasing) and queries the interner
// refuses fail the run mid-stream; earlier queries have already mutated
// replica cache state by then, which is the documented price of
// laziness (Run validates its whole stream before feeding it here).
type processSource struct {
	n    int
	i    int
	draw func() (float64, bool)
	mk   func(i int, t float64) sched.Query
	in   *interner

	buffered    bool
	buf         job
	first, prev float64 // first and latest drawn instants
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
	// Field by field, in place: a job literal is built on the stack and
	// copied over.
	j := &s.buf
	j.q, j.arrival, j.idx = s.mk(s.i, t), t, s.i
	j.class, j.model, j.degraded = 0, 0, false
	if s.e = s.in.admit(j); s.e != nil {
		return
	}
	if s.i == 0 {
		s.first = t
	}
	s.buffered = true
}

// peek returns the next arrival instant without consuming it (+Inf
// when exhausted or failed).
func (s *processSource) peek() float64 {
	s.fill()
	if !s.buffered {
		return math.Inf(1)
	}
	return s.buf.arrival
}

// next consumes the next arrival. The job is the source's own and stays
// valid until the following next; the runner copies it into a replica
// queue.
func (s *processSource) next() *job {
	s.i++
	s.buffered = false
	return &s.buf
}

// runner is the engine's hot path: one event loop over the fleet,
// driven by the packed event heap and the arrival source.
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
	src    *processSource

	ctl      *elasticState
	admit    []*serving.Replica
	admitIdx []int

	batching bool
	maxB     int

	svcs serviceIndex

	// scratch, reused across flushes; batch points into the flushing
	// replica's queue
	batch []*job
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

// drop records a refused/abandoned query into its Outcome slot, counters
// and replica's accumulator: the echo only (per-model and per-class
// accounting need the labels of dropped queries too), no service field.
func (r *runner) drop(ri int, j *job, now float64, why Reason) {
	res := r.res
	res.fill(j, nil, 0, ri, now, now, why, 0)
	res.Dropped++
	switch why {
	case ReasonDeadline:
		res.DeadlineDrops++
	case ReasonRejected:
		res.Rejected++
	case ReasonShed:
		res.Shed++
	}
	res.Makespan = max(res.Makespan, now)
	r.accs[ri].AddDropped(j.q.Model, j.q.Class, j.arrival, now)
	if r.ctl != nil {
		// Policies see drops as resolved-with-miss: the strongest
		// scale-up signal there is.
		r.ctl.resolved++
	}
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
		// Pick the batch in place: the longest compatible prefix, up to
		// B. Deadline-expired queries drop as they surface, exactly as
		// the unbatched loop dropped them at service start. k runs one
		// past the last entry consumed; the entries leave the queue once
		// their outcomes are recorded.
		r.batch = r.batch[:0]
		var headKey serving.BatchKey
		k := st.qhead
		for ; len(r.batch) < r.maxB && k < len(st.queue); k++ {
			j := &st.queue[k]
			wait := now - j.arrival
			if budget := j.q.MaxLatency; r.e.opt.Drop && budget > 0 && budget-wait <= 0 {
				r.e.reps[ri].Release()
				r.drop(ri, j, now, ReasonDeadline)
				continue
			}
			if r.batching {
				// The key of the query the scheduler will see: debited
				// by its wait under LoadAware, unless degraded.
				q := j.q
				if r.e.opt.LoadAware && !j.degraded {
					q = q.Debit(wait)
				}
				key := r.e.reps[ri].BatchKey(q, j.degraded)
				if len(r.batch) == 0 {
					headKey = key
				} else if key != headKey {
					break
				}
			}
			r.batch = append(r.batch, j)
		}
		if len(r.batch) == 0 {
			// Drops consumed the head; re-evaluate the window against
			// the new head.
			st.qdiscard(k)
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
		res := r.res
		for i, j := range r.batch {
			s := &served[i]
			e2e := finish - j.arrival
			// SLO attainment for open-loop serving judges end-to-end
			// time against the original budget.
			s.LatencyMet = j.q.MaxLatency <= 0 || e2e <= j.q.MaxLatency
			rc := 0.0
			if i == n-1 {
				rc = recache
			}
			res.fill(j, s, r.svcs.intern(&res.services, s, rc), ri, now, finish, ReasonNone, n)
			res.Served++
			if s.Recached {
				res.Recaches++
			}
			r.accs[ri].AddOpenLoop(s, j.arrival, finish, now-j.arrival, e2e)
			res.ReplicaQueries[ri]++
			if r.ctl != nil {
				r.ctl.resolved++
				if s.LatencyMet {
					r.ctl.sloMet++
				}
			}
		}
		res.RecacheSec += recache
		res.Makespan = max(res.Makespan, finish)
		st.qdiscard(k)
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
func (r *runner) arrive(j *job) error {
	if r.ctl != nil {
		r.ctl.arrivals++
	}
	ri := r.e.router.Pick(j.q, r.admit)
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
			r.drop(ri, j, j.arrival, ReasonRejected)
			return nil
		case ShedOldest:
			r.e.reps[ri].Release()
			r.drop(ri, st.qfront(), j.arrival, ReasonShed)
			st.qdiscard(st.qhead + 1)
		case Degrade:
			// Counted here: each admission ends in one record, served or not.
			j.degraded = true
			r.res.Degraded++
		}
	}
	r.e.reps[ri].Reserve()
	st.qpush(j)
	if !st.busy {
		return r.flush(ri, j.arrival)
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
			return r.src.e
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
