package serving

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"sushi/internal/sched"
	"sushi/internal/supernet"
)

// strictLatencyDegrade is the shared per-query policy override for
// admission control's degrade-to-fastest escape valve. Schedulers only
// read through Query.Policy, so every degraded query can alias this one
// value instead of heap-allocating a policy per serve.
var strictLatencyDegrade = sched.StrictLatency

// UnknownModelError is the typed rejection for a query naming a model
// the deployment does not host; the HTTP surface maps it to 400.
type UnknownModelError struct {
	// Model is the rejected model id.
	Model string
	// Have lists the models the deployment hosts.
	Have []string
}

// Error implements error.
func (e *UnknownModelError) Error() string {
	return fmt.Sprintf("serving: unknown model %q (deployment hosts %v)", e.Model, e.Have)
}

// Tenant pairs a model id with its serving stack — one entry of a
// multi-tenant replica. The first tenant is the replica's default
// model (queries with an empty Model resolve to it).
type Tenant struct {
	// Model is the tenant's model id ("resnet50", ...). Single-model
	// replicas use "" — the pre-multi-tenant behaviour.
	Model string
	// Sys is the tenant's vertically integrated serving stack: its own
	// scheduler, latency table and simulated accelerator state.
	Sys *System
}

// tenant is one model's slice of a replica: the per-model System (its
// own sched.Scheduler and latency-table family), the atomically
// published cache snapshot routers score against, the per-model
// cache-management layer, and the tenant's share of the replica's
// shared Persistent Buffer.
type tenant struct {
	model string
	sys   *System
	// cache is the tenant's last published cache state, read lock-free
	// by routers and batch formers. Guarded for writes by the replica
	// lock.
	cache atomic.Pointer[cacheSnapshot]
	// rec is the tenant's cache-management layer (nil = disabled).
	// Guarded by the replica lock.
	rec *recacheState
	// shareBytes is the tenant's current share of the replica's
	// Persistent Buffer in bytes (0 = uncapped: the whole PB, the
	// single-model behaviour). The cache-management layer and the
	// partitioner only consider cache columns that fit the share.
	// Guarded by the replica lock.
	shareBytes int64
	// windowQueries counts queries served since the partitioner's last
	// rebalance — the traffic signal shares are re-weighted by.
	windowQueries int
}

// Replica is one cluster member: one System per co-hosted model (each
// with its own scheduler and latency-table family, behind ONE shared
// simulated accelerator whose Persistent Buffer the tenants partition)
// made safe for concurrent callers. Queries on one replica serialize
// through its mutex — exactly as a query stream serializes onto one
// physical accelerator — while different replicas serve in parallel.
type Replica struct {
	id int
	// tenants holds the co-hosted models in deployment order; entry 0
	// is the default model. Immutable after construction, so model
	// resolution is lock-free.
	tenants []*tenant
	// mu owns every tenant's mutable state (scheduler, simulator,
	// recache window, PB shares) and acc.
	mu  sync.Mutex
	acc Accumulator
	// depth counts routed-but-unfinished queries (queued + in flight).
	depth atomic.Int64
	// life is the replica's elastic-fleet admission state (see
	// lifecycle.go); zero value Active.
	life atomic.Int32
	// part is the shared-PB cache partitioner (nil = static split or
	// single model). Guarded by mu.
	part *partitionState
}

// cacheSnapshot is an immutable view of a tenant's cache state: the
// scheduler's believed column and the SubGraph slice of the PB it owns.
type cacheSnapshot struct {
	col   int
	graph *supernet.SubGraph
	// overlaps caches, per table row, Overlap(SubNets[row].Graph, graph)
	// — the affinity router's (model SubNet → score) table, derived once
	// per published snapshot instead of per pick. Materialized lazily on
	// the first affinity score after publication; the values are a pure
	// function of the snapshot, so concurrent initializers store
	// identical arrays and the pointer swap stays lock-free.
	overlaps atomic.Pointer[[]float64]
}

// NewMultiReplica wraps one System per co-hosted model as cluster
// member id. Tenant 0 is the default model (empty Query.Model resolves
// to it); model ids must be unique. A single-model replica is the one
// tenant whose model id is "".
func NewMultiReplica(id int, tenants []Tenant) (*Replica, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("serving: replica %d needs at least one tenant", id)
	}
	r := &Replica{id: id, tenants: make([]*tenant, len(tenants))}
	for i, tn := range tenants {
		if tn.Sys == nil {
			return nil, fmt.Errorf("serving: replica %d: nil system for model %q", id, tn.Model)
		}
		if tn.Model == "" && len(tenants) > 1 {
			return nil, fmt.Errorf("serving: replica %d: multi-tenant replicas need named models", id)
		}
		for _, prev := range r.tenants[:i] {
			if prev.model == tn.Model {
				return nil, fmt.Errorf("serving: replica %d: duplicate model %q", id, tn.Model)
			}
		}
		t := &tenant{model: tn.Model, sys: tn.Sys}
		r.tenants[i] = t
		r.publishCache(t)
	}
	return r, nil
}

// tenantFor resolves a model id ("" = the default tenant). A replica
// hosts a handful of models, so a scan of their names beats hashing one.
// Lock-free: the tenant set is immutable after construction.
func (r *Replica) tenantFor(model string) (*tenant, error) {
	if model == "" {
		return r.tenants[0], nil
	}
	for _, t := range r.tenants {
		if t.model == model {
			return t, nil
		}
	}
	return nil, &UnknownModelError{Model: model, Have: r.Models()}
}

// Models lists the co-hosted model ids in tenant order (a single
// [""] for single-model replicas).
func (r *Replica) Models() []string {
	out := make([]string, len(r.tenants))
	for i, t := range r.tenants {
		out[i] = t.model
	}
	return out
}

// publishCache snapshots a tenant's current cache state for lock-free
// readers. Callers own the replica lock (or exclusive access at
// construction).
func (r *Replica) publishCache(t *tenant) {
	t.cache.Store(&cacheSnapshot{
		col:   t.sys.Scheduler().CacheColumn(),
		graph: t.sys.Simulator().Cached(),
	})
}

// peek is the one lock-free look routers and batch formers take at a
// replica: it resolves q's model-tenant (nil for an unknown model),
// loads the tenant's last published cache snapshot and writes into d
// what the tenant's scheduler would serve for q against that column.
// ok is false when no decision was made: an unknown model, no
// snapshot, a scheduler error or, with needGraph, a snapshot that
// caches no SubGraph, which returns before the scheduler is asked. d
// is an out-parameter: returning the five-field Decision by value adds
// stack copies to every replica the fastest router scores.
func (r *Replica) peek(q sched.Query, needGraph bool, d *sched.Decision) (t *tenant, snap *cacheSnapshot, ok bool) {
	t, err := r.tenantFor(q.Model)
	if err != nil {
		return nil, nil, false
	}
	if snap = t.cache.Load(); snap == nil || (needGraph && snap.graph == nil) {
		return t, snap, false
	}
	*d, err = t.sys.Scheduler().PeekAt(q, snap.col)
	return t, snap, err == nil
}

// AffinityScore is the overlap (||SN ∩ G||² / ||SN||²) between the
// SubNet the query's model-tenant would serve for q — evaluated
// against its last published cache state — and the SubGraph slice its
// Persistent Buffer share holds: 0 when that slice is empty, -1 when
// q's model is unknown or q cannot be scheduled. Lock-free: it reads
// the atomic snapshot and the tenant scheduler's immutable table only,
// so routers may call it while the replica is serving.
func (r *Replica) AffinityScore(q sched.Query) float64 {
	var d sched.Decision
	t, snap, ok := r.peek(q, true, &d)
	switch {
	case ok:
		return overlapFor(t, snap, d.SubNet)
	case t != nil && (snap == nil || snap.graph == nil):
		return 0
	}
	return -1
}

// overlapFor reads the snapshot's cached per-row overlap score,
// materializing the whole (row → score) array on the first read after
// publication.
func overlapFor(t *tenant, snap *cacheSnapshot, row int) float64 {
	if p := snap.overlaps.Load(); p != nil {
		return (*p)[row]
	}
	tab := t.sys.Table()
	ov := make([]float64, tab.Rows())
	for i := range ov {
		ov[i] = supernet.Overlap(tab.SubNets[i].Graph, snap.graph)
	}
	snap.overlaps.Store(&ov)
	return ov[row]
}

// EnableRecache turns on the cache-management layer for every tenant
// with the given policy (zero-valued fields select defaults): each
// tenant starts tracking its served query mix and re-caches when a
// different cache column — within its PB share — would have served the
// recent window better. Call before serving begins; enabling
// mid-stream discards no state but the windows start empty.
func (r *Replica) EnableRecache(pol RecachePolicy) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.tenants {
		t.rec = newRecacheState(pol)
	}
}

// EnablePartition arms the shared-PB cache partitioner over the
// replica's tenants: the Persistent Buffer (pbBytes capacity) is
// divided into 2M half-slots for M tenants, every tenant starts at the
// static split of 2 half-slots (PB/M), and — under the traffic-
// weighted policy — shares are re-apportioned to the observed
// per-model traffic every pol.Window served queries, a hot model
// stealing half-slots from a cold one. Shrunk tenants are forced onto
// a cache column that fits (System.Recache, the switch cost charged
// exactly like a window-driven re-cache); grown tenants take the
// largest column their new share admits. Call before serving begins;
// single-tenant replicas reject the call (nothing to partition).
func (r *Replica) EnablePartition(pol PartitionPolicy, pbBytes int64) error {
	if len(r.tenants) < 2 {
		return fmt.Errorf("serving: partitioning needs at least two tenants (have %d)", len(r.tenants))
	}
	if err := pol.Validate(); err != nil {
		return err
	}
	if pbBytes <= 0 {
		return fmt.Errorf("serving: partitioning needs a Persistent Buffer (PB bytes %d)", pbBytes)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.part = newPartitionState(pol, pbBytes, len(r.tenants))
	for _, t := range r.tenants {
		t.shareBytes = 2 * r.part.halfSlot
		// Algorithm 1's own Q-periodic updates must respect the share too.
		t.sys.Scheduler().SetCacheBudget(t.shareBytes)
	}
	return nil
}

// PartitionStats reports the partitioner's enacted share-driven cache
// switches and their total modeled fill time in seconds (0, 0 while
// partitioning is off or static).
func (r *Replica) PartitionStats() (switches int, seconds float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.part == nil {
		return 0, 0
	}
	return r.part.switches, r.part.switchSec
}

// RecacheStats reports the window-driven cache switches enacted so far
// — the per-tenant cache-management layer plus the partitioner — and
// their total modeled fill time in seconds (0, 0 while both are
// disabled).
func (r *Replica) RecacheStats() (switches int, seconds float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.tenants {
		if t.rec != nil {
			switches += t.rec.switches
			seconds += t.rec.switchSec
		}
	}
	if r.part != nil {
		switches += r.part.switches
		seconds += r.part.switchSec
	}
	return switches, seconds
}

// ID returns the replica's index within its cluster.
func (r *Replica) ID() int { return r.id }

// QueueDepth reports the number of queries routed to this replica that
// have not finished (queued plus in flight).
func (r *Replica) QueueDepth() int { return int(r.depth.Load()) }

// Summary folds this replica's served stream (per-model slices under
// Summary.PerModel on multi-tenant replicas).
func (r *Replica) Summary() Summary {
	return r.snapshot().Summary()
}

// snapshot copies the accumulator under the replica lock.
func (r *Replica) snapshot() *Accumulator {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.acc.Snapshot()
}

// Inspect runs f with exclusive access to the replica's DEFAULT
// tenant's system, for read-only views of scheduler/simulator state.
// Multi-tenant callers use InspectTenants. f must not retain the
// system past the call.
func (r *Replica) Inspect(f func(*System)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f(r.tenants[0].sys)
}

// InspectTenants runs f once per tenant, in tenant order, with
// exclusive access to each tenant's system and current PB share — the
// multi-tenant view hook. f must not retain the systems past the call.
func (r *Replica) InspectTenants(f func(model string, shareBytes int64, sys *System)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.tenants {
		f(t.model, t.shareBytes, t.sys)
	}
}

// pass is the replica's one serve kernel, shared by every clock: one
// accelerator pass for qs through tenant t (a batch of one is the solo
// serve), the cache-management layer fed offered — the queries as they
// arrived — and run at most once with Recached marked on the last
// member (the switch follows the batch, mirroring CacheSwapped), the
// partitioner's traffic counters bumped, and the cache republished when
// it moved. The clocks differ only in where a switch cost goes: the
// live path charges it to the switched tenant's next query (chargeSwap,
// the closed-loop convention of Appendix A.1), the virtual path returns
// the seconds for the engine to extend the replica's busy interval by.
// The caller owns the replica lock.
func (r *Replica) pass(t *tenant, qs, offered []sched.Query, out []Served, virtual bool) (switchSec float64, err error) {
	if err := t.sys.ServeBatchInto(qs, out); err != nil {
		return 0, err
	}
	last := &out[len(out)-1]
	var recSec, partSec float64
	if t.rec != nil {
		if cost, switched := t.rec.maybeRecacheBatch(t.sys, offered, t.shareBytes); switched {
			last.Recached = true
			if virtual {
				recSec = cost
			} else {
				t.sys.chargeSwap(cost)
			}
		}
	}
	if r.part != nil {
		t.windowQueries += len(qs)
		r.part.maybeRebalance(r, func(tn *tenant, cost float64) {
			if virtual {
				partSec += cost
			} else {
				tn.sys.chargeSwap(cost)
			}
		})
	}
	if last.CacheSwapped || last.Recached {
		r.publishCache(t)
	}
	// The two sums stay apart until here: folding rebalance costs into
	// one running total would associate differently and move the last
	// bit of the engine's RecacheSec.
	return recSec + partSec, nil
}

// serve runs one reserved query: it serializes on the replica lock,
// tightens the budget to the context's deadline (a cancelled or expired
// context fails there, before the pass mutates anything), serves
// through the query's model-tenant and folds the outcome into the
// replica accumulator. The cache-management layer observes the query as
// it arrived, before the deadline tightened it. The reservation is
// released on every path.
func (r *Replica) serve(ctx context.Context, q sched.Query) (Served, error) {
	defer r.depth.Add(-1)
	t, err := r.tenantFor(q.Model)
	if err != nil {
		return Served{}, err
	}
	q.Model = t.model
	offered := [1]sched.Query{q}
	qs := offered
	var out [1]Served
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := tightenBudget(ctx, &qs[0]); err != nil {
		return Served{}, err
	}
	if _, err := r.pass(t, qs[:], offered[:], out[:], false); err != nil {
		return Served{}, err
	}
	r.acc.add(&out[0])
	return out[0], nil
}

// Serve runs one query directly on this replica (bypassing any router).
func (r *Replica) Serve(ctx context.Context, q sched.Query) (Served, error) {
	r.Reserve()
	return r.serve(ctx, q)
}

// serveBatch serves one already-reserved group of the live batch former
// — solo stragglers and shared passes alike — as one pass on the group's
// model-tenant (the former never mixes models). qs were deadline-
// tightened at submit time; offered are the same queries as they
// arrived, which the cache-management layer observes, as in serve. Both
// are normalized in place, the outcomes land in out (len(out) must
// equal len(qs)) and fold into the accumulator together with one
// batch-occupancy observation.
func (r *Replica) serveBatch(qs, offered []sched.Query, out []Served) error {
	defer r.depth.Add(-int64(len(qs)))
	t, err := r.tenantFor(qs[0].Model)
	if err != nil {
		return err
	}
	for i := range qs {
		qs[i].Model, offered[i].Model = t.model, t.model
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.pass(t, qs, offered, out, false); err != nil {
		return err
	}
	for i := range out {
		r.acc.add(&out[i])
	}
	r.acc.ObserveBatch(len(qs))
	return nil
}

// Reserve marks one routed-but-unfinished query against the replica's
// queue depth; Release undoes it. Routers read QueueDepth, so live
// dispatch reserves at routing time and serve releases on completion.
// The simq engine uses the pair to expose *virtual* queue depth to
// routers while it serializes service in virtual time — the same depth
// live dispatch maintains, so every Router implementation works
// unchanged against simulated load.
func (r *Replica) Reserve() { r.depth.Add(1) }

// Release drops one reservation (completed, dropped, shed or cancelled).
func (r *Replica) Release() { r.depth.Add(-1) }

// ServeVirtual serves one query at a virtual instant — a
// ServeBatchVirtualInto flush of one, for callers without scratch
// buffers of their own. The switch seconds are dropped; engines that
// charge them call ServeBatchVirtualInto.
func (r *Replica) ServeVirtual(q, offered sched.Query, degrade bool) (Served, error) {
	var out [1]Served
	_, err := r.ServeBatchVirtualInto([]sched.Query{q}, []sched.Query{offered}, degrade, out[:])
	return out[0], err
}

// ServeBatchVirtualInto serves one micro-batch at a virtual instant on
// behalf of the simq engine: one accelerator pass through the batch's
// model-tenant (the engine's batch former keys on the model, so a flush
// never mixes models). It serializes on the replica lock and publishes
// cache state like the live path, but leaves queue-depth and
// accumulator bookkeeping to the caller — the engine owns virtual time,
// so it alone knows the queries' queueing telemetry. offered carries
// the queries as they arrived, before load-aware budget debiting: the
// cache-management layer observes them so re-caching chases the
// workload's (A_t, L_t) drift, not transient queue-induced budget
// erosion or degrade rewrites. With degrade set, every member is served
// by the fastest SubNet reachable under ITS OWN MODEL's current cache
// column (admission control's degrade-to-fastest escape valve resolves
// the budget against the query's own latency table): accuracy floor
// dropped, budget collapsed to that column's minimum latency under a
// per-query StrictLatency override.
//
// qs and offered are normalized (and, under degrade, rewritten) IN
// PLACE, and the per-member outcomes land in out (len(out) must equal
// len(qs)); the engine reuses one set of buffers across every flush,
// which is what makes the steady-state serve path allocation free.
// switchSec is the virtual-time cost of every cache switch the flush
// enacted — at most one tenant re-cache (the advisor runs once, after
// the whole batch) plus any partition rebalance — or 0: the switches
// occupy the accelerator without serving, so the engine extends the
// replica's busy interval by it.
func (r *Replica) ServeBatchVirtualInto(qs, offered []sched.Query, degrade bool, out []Served) (switchSec float64, err error) {
	t, err := r.tenantFor(qs[0].Model)
	if err != nil {
		return 0, err
	}
	for i := range qs {
		qs[i].Model = t.model
	}
	for i := range offered {
		offered[i].Model = t.model
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if degrade {
		budget := t.sys.fastestBudget()
		for i := range qs {
			qs[i].MinAccuracy = 0
			qs[i].MaxLatency = budget
			qs[i].Policy = &strictLatencyDegrade
		}
	}
	return r.pass(t, qs, offered, out, true)
}
