package core

import (
	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/simq"
	"sushi/internal/workload"
)

// SimOptions configures one simulated run on a deployment: the
// queueing discipline plus the three things a run may override or
// inherit from the fleet it runs on.
type SimOptions struct {
	// QueueCap bounds each replica's wait queue (0 = unbounded);
	// Admission picks the overflow policy (default simq.Reject).
	QueueCap  int
	Admission simq.Admission
	// LoadAware debits each query's latency budget by its queueing
	// delay before scheduling; Drop abandons queries whose budget is
	// exhausted before service starts.
	LoadAware, Drop bool
	// Router is the dispatch policy for the simulated run; empty
	// defaults to the cluster's own configured policy. A fresh router
	// instance is built per engine, so repeated simulations over fresh
	// deployments reproduce exactly.
	Router string
	// RouterSeed seeds the random router.
	RouterSeed int64
	// Batching is the virtual-time batch former (B queries per flush,
	// window in virtual seconds). The zero value inherits the cluster's
	// live batch policy; set MaxBatch to 1 to force an unbatched run on
	// a batched cluster.
	Batching simq.Batching
	// Autoscale overrides the deployment's elastic-fleet configuration
	// for this run (nil inherits it; set Min == Max to pin the fleet
	// for a control run). Max must not exceed the deployed replica
	// count: a run cannot boot replicas the deployment never built.
	Autoscale *AutoscaleOptions
}

// Engine builds the simq engine for one simulated run on the
// deployment's replicas. It is the one place a run's router (by name
// and seed, empty = the cluster's own), autoscale override (nil = the
// deployment's) and batch former (zero = the cluster's live policy)
// are resolved; the public API, POST /v1/simulate and the experiments
// all come through here.
func (d *ClusterDeployment) Engine(o SimOptions) (*simq.Engine, error) {
	kind := o.Router
	if kind == "" {
		kind = d.Cluster.RouterName()
	}
	router, err := NewRouter(kind, o.RouterSeed)
	if err != nil {
		return nil, err
	}
	batch := o.Batching
	if batch == (simq.Batching{}) {
		batch = d.Cluster.BatchPolicy()
	}
	asc := d.Autoscale
	if o.Autoscale != nil {
		if asc, err = ResolveAutoscale(o.Autoscale); err != nil {
			return nil, err
		}
	}
	return simq.FromCluster(d.Cluster, simq.Options{
		QueueCap:  o.QueueCap,
		Admission: o.Admission,
		LoadAware: o.LoadAware,
		Drop:      o.Drop,
		Router:    router,
		Batching:  batch,
		Autoscale: asc,
	})
}

// Simulate plays a timed query stream through the deployment in
// virtual time on an engine built by Engine.
func (d *ClusterDeployment) Simulate(qs []serving.TimedQuery, o SimOptions) (*simq.Result, error) {
	eng, err := d.Engine(o)
	if err != nil {
		return nil, err
	}
	return eng.Run(qs)
}

// SimulatePopulation streams n arrivals of a client-cohort population
// through the deployment in virtual time: arrivals and the queries
// their cohorts mint (model, SLO class, budget and accuracy draws) are
// generated lazily in lockstep, so no stream is materialized.
func (d *ClusterDeployment) SimulatePopulation(n int, pop workload.Population, seed int64, o SimOptions) (*simq.Result, error) {
	ls, err := pop.Labeled(seed)
	if err != nil {
		return nil, err
	}
	eng, err := d.Engine(o)
	if err != nil {
		return nil, err
	}
	// The engine calls mk immediately after each stream draw, so one
	// buffered arrival is always the one being minted.
	var cur workload.CohortArrival
	stream := func() (float64, bool) {
		a, ok := ls()
		if !ok {
			return 0, false
		}
		cur = a
		return a.T, true
	}
	return eng.RunProcess(n, stream, func(i int, t float64) sched.Query {
		q := cur.Query
		q.ID = i
		return q
	})
}
