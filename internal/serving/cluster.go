package serving

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"sushi/internal/sched"
)

// Cluster dispatches queries across N replica systems — each with its
// own simulated SushiAccel and Persistent Buffer — behind a pluggable
// Router. This is the "naturally integrated in state-of-the-art ML
// inference serving frameworks" direction of the paper's conclusion:
// queries route across replicas (round-robin, least-loaded, SubGraph
// affinity), replicas serve in parallel, and per-replica accumulators
// aggregate without a global lock.
type Cluster struct {
	reps   []*Replica
	router Router
	// mu serializes routing decisions (router state + reservation).
	mu sync.Mutex
	// batch is the live micro-batching policy; batchers (one per
	// replica, non-nil only while batching is enabled) group concurrent
	// Serve calls into shared accelerator passes.
	batch    BatchPolicy
	batchers []*liveBatcher
}

// NewCluster builds a cluster over pre-constructed replicas
// (core.DeployCluster assembles one Replica per fleet slot and wires
// them here). Every replica must host the same model set, in the same
// tenant order, so routing and model normalization agree fleet-wide. A
// nil router defaults to round-robin.
func NewCluster(reps []*Replica, router Router) (*Cluster, error) {
	if len(reps) == 0 {
		return nil, fmt.Errorf("serving: cluster needs at least one replica")
	}
	if router == nil {
		router = NewRoundRobin()
	}
	for i, rep := range reps {
		if rep == nil {
			return nil, fmt.Errorf("serving: nil replica %d", i)
		}
	}
	models := reps[0].Models()
	for i, rep := range reps {
		got := rep.Models()
		if len(got) != len(models) {
			return nil, fmt.Errorf("serving: replica %d hosts %v, replica 0 hosts %v", i, got, models)
		}
		for j := range got {
			if got[j] != models[j] {
				return nil, fmt.Errorf("serving: replica %d hosts %v, replica 0 hosts %v", i, got, models)
			}
		}
	}
	return &Cluster{reps: reps, router: router}, nil
}

// Models lists the cluster's co-hosted model ids in tenant order (a
// single [""] for single-model deployments).
func (c *Cluster) Models() []string { return c.reps[0].Models() }

// normalize resolves a query's model id to the fleet's canonical form
// ("" stays "" on single-model clusters) or rejects an unknown model
// with a typed UnknownModelError — before routing, so model-aware
// routers always score the right tenant.
func (c *Cluster) normalize(q sched.Query) (sched.Query, error) {
	t, err := c.reps[0].tenantFor(q.Model)
	if err != nil {
		return q, err
	}
	q.Model = t.model
	return q, nil
}

// EnableBatching turns on live-path micro-batching with the given
// policy: concurrent Serve calls routed to the same replica within the
// policy's window are grouped — by the SubNet they would be served —
// into one batched accelerator pass that fetches the shared weights
// once. Call before serving begins (it is not synchronized with
// in-flight dispatch); a non-Enabled policy switches batching off.
func (c *Cluster) EnableBatching(pol BatchPolicy) error {
	if err := pol.Validate(); err != nil {
		return err
	}
	c.batch = pol
	if !pol.Enabled() {
		c.batchers = nil
		return nil
	}
	c.batchers = make([]*liveBatcher, len(c.reps))
	for i, rep := range c.reps {
		c.batchers[i] = newLiveBatcher(rep, pol)
	}
	return nil
}

// BatchPolicy returns the live micro-batching policy (zero value when
// batching is off).
func (c *Cluster) BatchPolicy() BatchPolicy { return c.batch }

// Replicas exposes the cluster members (for views and direct serving).
func (c *Cluster) Replicas() []*Replica { return c.reps }

// Size returns the replica count.
func (c *Cluster) Size() int { return len(c.reps) }

// RouterName identifies the dispatch policy.
func (c *Cluster) RouterName() string { return c.router.Name() }

// route picks and reserves a replica for q.
func (c *Cluster) route(q sched.Query) *Replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.router.Pick(q, c.reps)
	if i < 0 || i >= len(c.reps) {
		i = 0
	}
	rep := c.reps[i]
	rep.Reserve()
	return rep
}

// Serve routes one query to a replica and serves it there. With
// micro-batching enabled (EnableBatching), the query first passes the
// replica's batch former: concurrent callers landing on the same
// replica within the batching window share one accelerator pass when
// they resolve to the same SubNet. Context deadlines tighten the
// latency budget at submit time (tightenBudget) and cancellation
// abandons the wait — the batch former then skips the query at flush.
func (c *Cluster) Serve(ctx context.Context, q sched.Query) (Served, error) {
	q, err := c.normalize(q)
	if err != nil {
		return Served{}, err
	}
	rep := c.route(q)
	if c.batchers == nil {
		return rep.serve(ctx, q)
	}
	offered := q
	if err := tightenBudget(ctx, &q); err != nil {
		rep.Release()
		return Served{}, err
	}
	p := c.batchers[rep.ID()].submit(q, offered)
	select {
	case out := <-p.done:
		return out.res, out.err
	case <-ctx.Done():
		// The flusher observes the cancellation and releases the
		// reservation; if the flush already started, the result is
		// simply discarded (done is buffered).
		close(p.cancelled)
		return Served{}, ctx.Err()
	}
}

// ServeAll serves a closed-loop stream across the cluster: every query
// is routed up front (in stream order, so routing is deterministic for
// a deterministic router), then each replica serves its share in
// submission order while replicas run in parallel. Results align with
// qs by index. The first error (or cancellation) aborts the batch:
// remaining queries are not served — no accelerator state mutates for
// work the caller will discard — and their result slots stay zero.
func (c *Cluster) ServeAll(ctx context.Context, qs []sched.Query) ([]Served, error) {
	type item struct {
		idx int
		q   sched.Query
	}
	// Validate (and normalize) the whole batch before any query executes
	// — no accelerator state mutates for work the caller will discard.
	normalized := make([]sched.Query, len(qs))
	for i, q := range qs {
		nq, err := c.normalize(q)
		if err != nil {
			return make([]Served, len(qs)), err
		}
		normalized[i] = nq
	}
	qs = normalized
	groups := make([][]item, len(c.reps))
	c.mu.Lock()
	for i, q := range qs {
		ri := c.router.Pick(q, c.reps)
		if ri < 0 || ri >= len(c.reps) {
			ri = 0
		}
		c.reps[ri].Reserve()
		groups[ri] = append(groups[ri], item{i, q})
	}
	c.mu.Unlock()

	out := make([]Served, len(qs))
	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
		failed  atomic.Bool
	)
	record := func(err error) {
		errOnce.Do(func() { firstEr = err })
		failed.Store(true)
	}
	for ri, g := range groups {
		if len(g) == 0 {
			continue
		}
		wg.Add(1)
		go func(rep *Replica, g []item) {
			defer wg.Done()
			for _, it := range g {
				if failed.Load() {
					rep.Release()
					continue
				}
				res, err := rep.serve(ctx, it.q)
				if err != nil {
					record(err)
					continue
				}
				out[it.idx] = res
			}
		}(c.reps[ri], g)
	}
	wg.Wait()
	return out, firstEr
}

// Result is one open-loop outcome: the served record, the replica that
// produced it and any per-query error (a cancelled dispatch surfaces as
// the context's error).
type Result struct {
	Served  Served
	Replica int
	Err     error
}

// ServeStream serves an open-loop stream: queries arriving on in are
// routed as they arrive and served concurrently across replicas (FIFO
// within a replica). The result channel closes once in closes (or ctx
// is cancelled) and every in-flight query has drained — workers never
// leak. Consumers must drain the returned channel.
func (c *Cluster) ServeStream(ctx context.Context, in <-chan sched.Query) <-chan Result {
	out := make(chan Result)
	queues := make([]chan sched.Query, len(c.reps))
	var wg sync.WaitGroup
	for i := range c.reps {
		queues[i] = make(chan sched.Query, 16)
		wg.Add(1)
		go func(rep *Replica, queue <-chan sched.Query) {
			defer wg.Done()
			for q := range queue {
				res, err := rep.serve(ctx, q)
				select {
				case out <- Result{Served: res, Replica: rep.ID(), Err: err}:
				case <-ctx.Done():
					// Consumer is gone with the context; drop the result
					// and keep draining reservations.
				}
			}
		}(c.reps[i], queues[i])
	}
	go func() {
		defer func() {
			for _, q := range queues {
				close(q)
			}
		}()
		for {
			select {
			case <-ctx.Done():
				return
			case q, ok := <-in:
				if !ok {
					return
				}
				nq, err := c.normalize(q)
				if err != nil {
					// An unknown model is a per-query failure on the open
					// stream: report it and keep serving the rest.
					select {
					case out <- Result{Err: err, Replica: -1}:
					case <-ctx.Done():
						return
					}
					continue
				}
				q = nq
				rep := c.route(q)
				select {
				case queues[rep.ID()] <- q:
				case <-ctx.Done():
					rep.Release()
					return
				}
			}
		}
	}()
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// Stats folds every replica's accumulator into one cluster summary.
// There is no global serving lock to contend on: each replica snapshot
// takes only that replica's lock, and the fold happens on the reader.
func (c *Cluster) Stats() Summary {
	var m Accumulator
	for _, rep := range c.reps {
		m.Merge(rep.snapshot())
	}
	return m.Summary()
}
