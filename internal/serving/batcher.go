package serving

import (
	"fmt"
	"math"
	"sync"
	"time"

	"sushi/internal/sched"
)

// BatchPolicy configures SubGraph-stationary micro-batching: up to
// MaxBatch compatible queries (same BatchKey, hence the same weights)
// are grouped into one accelerator pass, waiting at most Window seconds
// for the batch to fill. It is the one batching value of both clocks:
// the live former behind Cluster.Serve reads Window as wall-clock
// seconds (rounded to the nanosecond), simq's former as virtual
// seconds. Batching is enabled only when MaxBatch > 1 AND Window > 0 —
// either knob at its zero/one value keeps the per-query path
// bit-identical to an unbatched deployment.
type BatchPolicy struct {
	// MaxBatch is B, the flush size (a full batch flushes immediately).
	MaxBatch int
	// Window is W in seconds, the longest a forming batch waits for more
	// members, measured from the head query's arrival.
	Window float64
}

// Enabled reports whether the policy actually batches.
func (p BatchPolicy) Enabled() bool { return p.MaxBatch > 1 && p.Window > 0 }

// Validate is the one validity rule for a batch policy, on either
// clock: B must be non-negative and W finite and non-negative. The
// zero value is valid (batching off).
func (p BatchPolicy) Validate() error {
	if p.MaxBatch < 0 {
		return fmt.Errorf("serving: batch MaxBatch %d must be non-negative", p.MaxBatch)
	}
	if w := p.Window; math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return fmt.Errorf("serving: batch Window %g must be finite and non-negative", p.Window)
	}
	return nil
}

// BatchKey is the one compatibility rule of both batch formers: two
// queries may share one accelerator pass only when their keys are
// equal. Replica.BatchKey builds it.
type BatchKey struct {
	// tenant is the query's model-tenant (nil for an unknown model):
	// different models read different weights.
	tenant *tenant
	// row is the scheduled SubNet's table row, -1 when the query cannot
	// be scheduled or is degraded (degraded queries of one tenant all
	// collapse to its fastest SubNet under the current column).
	row int
	// policy is the per-query override (-1 = replica default): mixing
	// policies would make ScheduleBatch reject the whole group.
	policy int
	// degraded marks a degrade-admitted query.
	degraded bool
}

// BatchKey returns q's compatibility key on this replica as it would be
// served now. A degraded query takes no scheduler peek: only its tenant
// and policy matter. Lock-free like AffinityScore, so batch formers may
// call it while the replica serves.
func (r *Replica) BatchKey(q sched.Query, degraded bool) BatchKey {
	k := BatchKey{row: -1, policy: -1, degraded: degraded}
	if q.Policy != nil {
		k.policy = int(*q.Policy)
	}
	if degraded {
		k.tenant, _ = r.tenantFor(q.Model)
		return k
	}
	var d sched.Decision
	var ok bool
	if k.tenant, _, ok = r.peek(q, false, &d); ok {
		k.row = d.SubNet
	}
	return k
}

// pendingServe is one live query waiting in a replica's batch former:
// q is deadline-tightened, offered is the query as it arrived, which the
// cache-management layer observes.
type pendingServe struct {
	q, offered sched.Query
	// done delivers the outcome; buffered so the flusher never blocks on
	// a waiter that gave up (context cancellation).
	done chan serveOutcome
	// cancelled is set by the waiter when its context dies before the
	// flush; the flusher skips the query and releases its reservation.
	cancelled chan struct{}
}

// serveOutcome is the flusher's reply to one pending query.
type serveOutcome struct {
	res Served
	err error
}

// liveBatcher is one replica's wall-clock micro-batch former: the first
// pending query arms a Window timer, a full batch flushes immediately,
// and the flusher groups the drained queries by BatchKey (compatible
// queries share one pass; stragglers serve solo). All waiting happens
// OUTSIDE the replica lock, so batching never blocks the accelerator —
// it only gives concurrent callers a chance to share a weight fetch.
type liveBatcher struct {
	rep *Replica
	// maxBatch and window are the policy's B and W, W rounded to the
	// nearest nanosecond of wall clock.
	maxBatch int
	window   time.Duration

	mu      sync.Mutex
	pending []*pendingServe
	timer   *time.Timer
	// gen counts batch generations: take() bumps it, so a timerFlush
	// armed for an already-drained batch recognizes itself as stale
	// instead of flushing the NEXT forming batch at window age ~0.
	gen uint64
}

func newLiveBatcher(rep *Replica, pol BatchPolicy) *liveBatcher {
	window := time.Duration(math.Round(pol.Window * float64(time.Second)))
	return &liveBatcher{rep: rep, maxBatch: pol.MaxBatch, window: window}
}

// submit enqueues q (offered before its deadline tightened it) and
// returns the channel its outcome will arrive on. The caller must have
// reserved the replica; the flusher releases the reservation for every
// drained query.
func (b *liveBatcher) submit(q, offered sched.Query) *pendingServe {
	p := &pendingServe{
		q:         q,
		offered:   offered,
		done:      make(chan serveOutcome, 1),
		cancelled: make(chan struct{}),
	}
	b.mu.Lock()
	b.pending = append(b.pending, p)
	switch {
	case len(b.pending) >= b.maxBatch:
		batch := b.take()
		b.mu.Unlock()
		// The filling caller is the leader: it executes the flush
		// synchronously (no extra goroutine on the full-batch fast path).
		b.flush(batch)
	case len(b.pending) == 1:
		// First member arms the window.
		gen := b.gen
		b.timer = time.AfterFunc(b.window, func() { b.timerFlush(gen) })
		b.mu.Unlock()
	default:
		b.mu.Unlock()
	}
	return p
}

// take drains the pending queue, disarms the timer and advances the
// batch generation. Callers own mu.
func (b *liveBatcher) take() []*pendingServe {
	batch := b.pending
	b.pending = nil
	b.gen++
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return batch
}

// timerFlush fires on window expiry for the batch generation it was
// armed on; if that batch was already drained (full-batch flush won the
// race), the timer is stale and must not touch the next forming batch.
func (b *liveBatcher) timerFlush(gen uint64) {
	b.mu.Lock()
	if b.gen != gen {
		b.mu.Unlock()
		return
	}
	batch := b.take()
	b.mu.Unlock()
	b.flush(batch)
}

// flush serves a drained batch: cancelled members are skipped (their
// reservation released), the rest are grouped by BatchKey and each
// group runs as one batched pass on the replica.
func (b *liveBatcher) flush(batch []*pendingServe) {
	if len(batch) == 0 {
		return
	}
	// Group compatible queries, preserving submission order within and
	// across groups.
	var order []BatchKey
	groups := map[BatchKey][]*pendingServe{}
	for _, p := range batch {
		select {
		case <-p.cancelled:
			b.rep.Release()
			continue
		default:
		}
		key := b.rep.BatchKey(p.q, false)
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], p)
	}
	for _, key := range order {
		g := groups[key]
		// Unschedulable queries (row -1) serve one by one, so the error
		// path stays per-query.
		size := len(g)
		if key.row < 0 {
			size = 1
		}
		for ; len(g) > 0; g = g[size:] {
			buf := make([]sched.Query, 2*size)
			qs, offered := buf[:size], buf[size:]
			for i, p := range g[:size] {
				qs[i], offered[i] = p.q, p.offered
			}
			rs := make([]Served, size)
			err := b.rep.serveBatch(qs, offered, rs)
			for i, p := range g[:size] {
				if err != nil {
					p.done <- serveOutcome{err: err}
					continue
				}
				p.done <- serveOutcome{res: rs[i]}
			}
		}
	}
}
