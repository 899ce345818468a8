package serving

import (
	"fmt"
	"sync"
	"time"

	"sushi/internal/sched"
)

// BatchPolicy configures SubGraph-stationary micro-batching: up to
// MaxBatch compatible queries (same scheduled SubNet, hence the same
// weights) are grouped into one accelerator pass, waiting at most
// Window for the batch to fill. The pair applies to both serving paths:
// the live batcher behind Cluster.Serve interprets Window as wall-clock
// time, the simq engine's batch former as virtual seconds (the numeric
// value carries over via Window.Seconds()). Batching is enabled only
// when MaxBatch > 1 AND Window > 0 — either knob at its zero/one value
// keeps the per-query path bit-identical to an unbatched deployment.
type BatchPolicy struct {
	// MaxBatch is B, the flush size (a full batch flushes immediately).
	MaxBatch int
	// Window is W, the longest a forming batch waits for more members,
	// measured from the head query's arrival.
	Window time.Duration
}

// Enabled reports whether the policy actually batches.
func (p BatchPolicy) Enabled() bool { return p.MaxBatch > 1 && p.Window > 0 }

// Validate rejects values the batch former would misread. The zero
// value is valid (batching off).
func (p BatchPolicy) Validate() error {
	if p.MaxBatch < 0 {
		return fmt.Errorf("serving: batch MaxBatch %d must be non-negative", p.MaxBatch)
	}
	if p.Window < 0 {
		return fmt.Errorf("serving: batch Window %v must be non-negative", p.Window)
	}
	return nil
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
// and the flusher groups the drained queries by their scheduled SubNet
// (compatible queries share one pass; stragglers serve solo). All waiting happens OUTSIDE the replica lock, so batching
// never blocks the accelerator — it only gives concurrent callers a
// chance to share a weight fetch.
type liveBatcher struct {
	rep *Replica
	pol BatchPolicy

	mu      sync.Mutex
	pending []*pendingServe
	timer   *time.Timer
	// gen counts batch generations: take() bumps it, so a timerFlush
	// armed for an already-drained batch recognizes itself as stale
	// instead of flushing the NEXT forming batch at window age ~0.
	gen uint64
}

func newLiveBatcher(rep *Replica, pol BatchPolicy) *liveBatcher {
	return &liveBatcher{rep: rep, pol: pol}
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
	case len(b.pending) >= b.pol.MaxBatch:
		batch := b.take()
		b.mu.Unlock()
		// The filling caller is the leader: it executes the flush
		// synchronously (no extra goroutine on the full-batch fast path).
		b.flush(batch)
	case len(b.pending) == 1:
		// First member arms the window.
		gen := b.gen
		b.timer = time.AfterFunc(b.pol.Window, func() { b.timerFlush(gen) })
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

// liveKey is the live former's compatibility key: queries share one
// batched pass only when they target the same model and resolve to the
// same SubNet row under the same effective policy (different models
// read different weights; mixing policies would make ScheduleBatch
// reject the whole group).
type liveKey struct {
	// model is the query's canonical model id ("" on single-model
	// deployments; the cluster normalizes before submit).
	model string
	// row is the scheduled SubNet's table row (-1 = unschedulable,
	// served solo so the error path stays per-query).
	row int
	// policy is the per-query override (-1 = replica default).
	policy int
}

// flush serves a drained batch: cancelled members are skipped (their
// reservation released), the rest are grouped by scheduled SubNet +
// effective policy and each group runs as one batched pass on the
// replica.
func (b *liveBatcher) flush(batch []*pendingServe) {
	if len(batch) == 0 {
		return
	}
	// Group compatible queries, preserving submission order within and
	// across groups.
	var order []liveKey
	groups := map[liveKey][]*pendingServe{}
	for _, p := range batch {
		select {
		case <-p.cancelled:
			b.rep.Release()
			continue
		default:
		}
		key := liveKey{model: p.q.Model, row: b.rep.ScheduledSubNet(p.q), policy: -1}
		if p.q.Policy != nil {
			key.policy = int(*p.q.Policy)
		}
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
