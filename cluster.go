package sushi

import (
	"context"
	"time"

	"sushi/internal/core"
	"sushi/internal/serving"
	"sushi/internal/simq"
)

// RecachePolicy configures the replica cache-management layer enabled
// by WithRecache: window size, minimum predicted-latency gain and
// switch cooldown. Zero-valued fields select defaults.
type RecachePolicy = serving.RecachePolicy

// RouterKind names a cluster dispatch policy.
type RouterKind = string

// Dispatch policies for WithRouter.
const (
	// RoundRobin cycles through replicas — the stateless baseline.
	RoundRobin = RouterKind(core.RouterRoundRobin)
	// LeastLoaded joins the shortest queue.
	LeastLoaded = RouterKind(core.RouterLeastLoaded)
	// Affinity steers each query to the replica whose cached SubGraph
	// best covers the SubNet it would serve, maximizing cross-query
	// SubGraph-Stationary reuse (the paper's core idea) at cluster scale.
	Affinity = RouterKind(core.RouterAffinity)
	// RandomRouter spreads load with a seeded uniform draw (seed 1, or
	// SimOptions.RouterSeed for a simulated run); reproducible baseline
	// for experiments.
	RandomRouter = RouterKind(core.RouterRandom)
	// Fastest is the hardware-aware policy for heterogeneous fleets: it
	// scores each replica by the service latency its OWN latency table
	// predicts for the query (scaled by queue depth) and picks the
	// minimum — compute-heavy SubNets flow to wide datacenter arrays,
	// small SubNets to embedded boards (§5.4.2 at cluster scale).
	Fastest = RouterKind(core.RouterFastest)
)

// ClusterOption customizes NewCluster beyond the per-replica Options.
type ClusterOption func(*core.ClusterOptions)

// WithReplicas sets the replica count R (default 1). Each replica is a
// full SUSHI deployment: its own simulated SushiAccel, Persistent Buffer
// and scheduler, over one shared SushiAbs latency table.
func WithReplicas(n int) ClusterOption {
	return func(o *core.ClusterOptions) { o.Replicas = n }
}

// WithRouter selects the dispatch policy (default RoundRobin).
func WithRouter(kind RouterKind) ClusterOption {
	return func(o *core.ClusterOptions) { o.Router = kind }
}

// WithHardware assigns per-replica hardware: replica i runs on cfgs[i],
// with a latency table derived per distinct configuration — mixed
// ZCU104/AlveoU50 fleets are first-class:
//
//	c, err := sushi.NewCluster(opt,
//		sushi.WithHardware(sushi.ZCU104(), sushi.ZCU104(), sushi.AlveoU50()),
//		sushi.WithRouter(sushi.Fastest))
//
// The replica count follows len(cfgs) unless WithReplicas names the
// same number; a mismatch is rejected. Without WithHardware every
// replica runs Options.Accel (homogeneous, one shared table).
func WithHardware(cfgs ...AccelConfig) ClusterOption {
	return func(o *core.ClusterOptions) { o.Accels = cfgs }
}

// Batching holds the virtual-time batch former's knobs for
// Cluster.Simulate: MaxBatch queries per flush, Window in VIRTUAL
// seconds (not wall clock). The zero value defers to the cluster's
// WithBatching policy; MaxBatch 1 forces batching off for the run.
type Batching = simq.Batching

// WithBatching enables SubGraph-stationary micro-batching on every
// replica: up to b queries that would be served the SAME SubNet are
// grouped into one accelerator pass — the shared weights are fetched
// (or read from the Persistent Buffer) once, and each member pays only
// its own compute and activation traffic — waiting at most window for
// the batch to fill. This is the throughput lever the paper's
// weight-traffic analysis implies: amortizing the dominant cost across
// queries. The policy applies to the live Serve path (window = wall
// clock) and is the default batch former for Cluster.Simulate (window
// reinterpreted as virtual seconds). ServeAll and ServeStream, and so
// sushi-server's /v1/serve/batch, never batch: each query is its own
// pass. b <= 1 or window <= 0 leaves serving unbatched and
// bit-identical to a plain deployment.
func WithBatching(b int, window time.Duration) ClusterOption {
	return func(o *core.ClusterOptions) {
		o.Batch = &serving.BatchPolicy{MaxBatch: b, Window: window.Seconds()}
	}
}

// PartitionPolicy configures how a multi-tenant fleet splits each
// replica's shared Persistent Buffer between co-hosted models (see
// WithPartition): Mode picks static vs traffic-weighted, Window the
// queries between traffic rebalances.
type PartitionPolicy = serving.PartitionPolicy

// PartitionMode names a shared-PB splitting policy.
type PartitionMode = serving.PartitionMode

// Partition modes for WithPartition.
const (
	// PartitionStatic fixes the equal boot-time split (PB/M per model).
	PartitionStatic = serving.PartitionStatic
	// PartitionTraffic re-apportions PB shares to observed per-model
	// traffic — a hot model steals cache from a cold one, enacted
	// through the same cache-switch machinery as WithRecache.
	PartitionTraffic = serving.PartitionTraffic
)

// WithModels makes the fleet multi-tenant: every replica co-hosts one
// full serving stack per model — its own scheduler and latency-table
// family per (model, hardware config) pair — behind a shared
// Persistent Buffer the tenants partition. The weight-shared SuperNet
// makes the PB a model-agnostic resource, so consolidating families
// onto one fleet beats static hardware partitioning whenever their
// load peaks are not simultaneous:
//
//	c, err := sushi.NewCluster(sushi.Options{},
//		sushi.WithModels(sushi.ResNet50, sushi.MobileNetV3),
//		sushi.WithReplicas(4),
//		sushi.WithPartition(sushi.PartitionPolicy{Mode: sushi.PartitionTraffic}))
//
// Queries pick their model via Query.Model ("resnet50", ...); an empty
// Model resolves to the first listed model. Without WithModels the
// deployment hosts the one model Options.Workload names.
func WithModels(models ...Workload) ClusterOption {
	return func(o *core.ClusterOptions) { o.Models = models }
}

// WithPartition selects the shared-PB cache-partitioning policy of a
// WithModels fleet (default: static equal split). Under
// PartitionTraffic the partitioner re-apportions PB half-slots to the
// observed per-model traffic every pol.Window served queries: shrunk
// models are forced onto smaller cached SubGraphs, grown models take
// bigger ones, with every switch's fill cost modeled exactly like a
// WithRecache switch (virtual busy time in Cluster.Simulate, next-query
// charge on the live path).
func WithPartition(pol PartitionPolicy) ClusterOption {
	return func(o *core.ClusterOptions) { o.Partition = &pol }
}

// AutoscaleOptions configures an elastic fleet for WithAutoscale: the
// admitting-replica bounds [Min, Max], the scaling policy by name
// ("utilization", "slo" or "saturation"), the evaluation cadence and
// the cooldown between enacted scale actions (both in virtual
// seconds).
type AutoscaleOptions = core.AutoscaleOptions

// WithAutoscale makes the fleet elastic: the deployment boots Max full
// replicas up front (cache columns, latency tables and Persistent
// Buffer partitions are assigned at build time for every replica that
// could ever serve), replicas Min..Max-1 start in Standby, and
// Cluster.Simulate lets the named policy move the admitting count
// between Min and Max on a fixed virtual-time cadence:
//
//	c, err := sushi.NewCluster(sushi.Options{Workload: sushi.MobileNetV3},
//		sushi.WithAutoscale(sushi.AutoscaleOptions{
//			Min: 2, Max: 8, Policy: "utilization", Interval: 0.25}))
//
// Replica lifecycle is first-class in the simulated run: a scale-up
// boots a Standby (or re-boots a Retired) replica and charges its
// cold-Persistent-Buffer fill as virtual busy time — exactly a
// re-cache fill — before it serves; a scale-down stops admitting,
// drains the replica's queue and in-flight batch, then retires it from
// every router's view. Min == Max (or omitting WithAutoscale) keeps
// the fleet fixed and runs bit-identical per seed. WithReplicas may be
// omitted (it defaults to Max) but must equal Max when set.
func WithAutoscale(a AutoscaleOptions) ClusterOption {
	return func(o *core.ClusterOptions) { o.Autoscale = &a }
}

// WithRecache enables the window-driven cache-management layer on every
// replica: caches become mutable at runtime, switching to the latency
// table column that would have served the replica's recent query mix
// with fewer infeasible queries or at least pol.MinGain lower total
// predicted latency. The switch is a modeled, non-free action — the
// simq engine (Cluster.Simulate) charges each switch's Persistent
// Buffer fill time as replica busy time in virtual seconds. Zero-valued
// policy fields select defaults (window 16, gain 5%, cooldown = window).
func WithRecache(pol RecachePolicy) ClusterOption {
	return func(o *core.ClusterOptions) { o.Recache = &pol }
}

// Result is one open-loop outcome from ServeStream: the served record,
// the replica that produced it and any per-query error.
type Result = serving.Result

// ReplicaInfo describes one replica's identity, load, served aggregates
// and Persistent Buffer state.
type ReplicaInfo = core.ReplicaView

// SubNetInfo describes one servable SubNet of the deployment.
type SubNetInfo = core.SubNetView

// Cluster is a SUSHI deployment: R replica accelerators behind a
// dispatcher (R = 1 by default: a single accelerator is a cluster of
// one). All methods are safe for concurrent use; queries on one replica
// serialize (a stream on one accelerator) while replicas serve in
// parallel.
type Cluster struct {
	d *core.ClusterDeployment
}

// NewCluster builds a serving deployment. Options configures every
// replica (workload, hardware, policy, mode, Q); ClusterOptions add the
// replica count, router and fleet features:
//
//	c, err := sushi.NewCluster(sushi.Options{Workload: sushi.MobileNetV3},
//		sushi.WithReplicas(4), sushi.WithRouter(sushi.Affinity))
//
// The i-th replica of each hardware group boots with cache candidate
// column i, so deployments start with distinct cached SubGraphs and
// affinity routing has signal from the first query; asking for more
// replicas than the latency table has columns is rejected with a typed
// error instead of silently reusing columns.
func NewCluster(opt Options, opts ...ClusterOption) (*Cluster, error) {
	var copt core.ClusterOptions
	for _, o := range opts {
		o(&copt)
	}
	d, err := core.DeployCluster(opt, copt)
	if err != nil {
		return nil, err
	}
	return &Cluster{d: d}, nil
}

// Serve routes one query to a replica and serves it there. A context
// deadline tightens the query's MaxLatency to the remaining wall-clock
// budget; cancellation fails fast.
func (c *Cluster) Serve(ctx context.Context, q Query) (Served, error) {
	return c.d.Cluster.Serve(ctx, q)
}

// ServeAll serves a closed-loop stream across the cluster: routing
// happens in stream order (deterministic for deterministic routers),
// replicas serve their shares in parallel, and results align with qs by
// index.
func (c *Cluster) ServeAll(ctx context.Context, qs []Query) ([]Served, error) {
	return c.d.Cluster.ServeAll(ctx, qs)
}

// ServeStream serves an open-loop stream: queries arriving on in are
// dispatched as they arrive and served concurrently. The result channel
// closes once in closes (or ctx is cancelled) and every in-flight query
// has drained. Consumers must drain the returned channel.
func (c *Cluster) ServeStream(ctx context.Context, in <-chan Query) <-chan Result {
	return c.d.Cluster.ServeStream(ctx, in)
}

// Size returns the replica count.
func (c *Cluster) Size() int { return c.d.Cluster.Size() }

// Router names the dispatch policy.
func (c *Cluster) Router() string { return c.d.Cluster.RouterName() }

// Frontier lists the servable SubNets (shared by every replica).
func (c *Cluster) Frontier() []SubNetInfo {
	return core.FrontierView(c.d.Frontier)
}

// Replicas snapshots per-replica state: queue depth, served aggregates
// and Persistent Buffer contents.
func (c *Cluster) Replicas() []ReplicaInfo {
	return core.ReplicaViews(c.d.Cluster)
}

// Stats folds every replica's accumulator into one cluster summary.
// Each replica aggregates under its own lock; the fold happens on the
// reader, so serving never contends on a global stats mutex.
func (c *Cluster) Stats() Summary {
	return c.d.Cluster.Stats()
}

// SimOptions configures Cluster.Simulate: the queueing discipline
// (QueueCap, Admission, LoadAware, Drop) plus what a run may override
// or inherit from the cluster: Router and RouterSeed (empty = the
// cluster's own policy), Batching (zero = the WithBatching policy) and
// Autoscale (nil = the WithAutoscale configuration).
type SimOptions = core.SimOptions

// Simulate plays a timed query stream through the cluster in virtual
// time: the simq discrete-event engine routes each query at its arrival
// instant against virtual queue depth, applies bounded queues with
// admission control, and folds p50/p95/p99 E2E latency, SLO attainment,
// goodput and drop counts. Virtual time means a day of diurnal traffic
// evaluates in milliseconds, deterministically per seed.
//
// The run shares the cluster's replicas with the live serve paths: each
// simulated query serializes on its replica's lock, and replica cache
// state adapts to the simulated traffic (that is the point — SubGraph
// Stationary behaviour under load). Run it against an otherwise idle
// cluster for reproducible results.
func (c *Cluster) Simulate(qs []TimedQuery, opt SimOptions) (*SimResult, error) {
	return c.d.Simulate(qs, opt)
}
