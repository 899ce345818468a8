package core

import (
	"fmt"

	"sushi/internal/accel"
	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/simq"
	"sushi/internal/workload"
)

// Hetero compares a homogeneous fleet against a mixed ZCU104+AlveoU50
// fleet under identical seeded arrivals — the cluster-scale reading of
// Table 2 / §5.4.2: the embedded board wins small SubNets (off-chip
// contention derates the datacenter card), the wide U50 array wins
// large ones, so which fleet composition is better depends on the query
// mix. Each replica carries its own hardware configuration and latency
// table, routing is hardware-aware ("fastest": per-replica predicted
// latency x queue depth), the cache-management layer re-caches as the
// drifting constraint mix moves (switch cost charged in virtual time),
// and both fleets see the same bursty OnOff arrival stream (a PR-2
// arrival process) with drifting (A_t, L_t) constraints.
func Hetero(w Workload, queries int) (*Result, error) {
	if queries <= 0 {
		queries = 160
	}
	const replicas = 4
	// Budget and capacity derive from the embedded board (present in both
	// fleets), so the two fleets face identical constraints.
	latLo, latHi, err := probeLatencies(w, serving.Full)
	if err != nil {
		return nil, err
	}
	budget := latHi * 1.1
	capacity := replicas / budget

	// One seeded arrival stream and one drifting constraint stream shared
	// by both fleets: bursts at 2.5x capacity with quiet valleys (a PR-2
	// OnOff process), while latency budgets drift from loose (the whole
	// frontier fits — large SubNets get served) to tight (only the small
	// end fits). The served mix moves from large to small SubNets, so
	// the boot-time cache choice goes stale and the cache-management
	// layer has something real to chase.
	arr, err := workload.OnOff{
		OnRate:  capacity * 2.5,
		OffRate: capacity * 0.4,
		MeanOn:  float64(queries) / (4 * capacity),
		MeanOff: float64(queries) / (4 * capacity),
	}.Times(queries, 7)
	if err != nil {
		return nil, err
	}
	qs, err := workload.Drifting(queries,
		workload.Range{}, workload.Range{}, // no accuracy floor
		workload.Range{Lo: latHi * 0.9, Hi: latHi * 1.1},
		workload.Range{Lo: latLo * 0.9, Hi: latLo * 1.4},
		7)
	if err != nil {
		return nil, err
	}
	stream, err := simq.Stream(qs, arr)
	if err != nil {
		return nil, err
	}

	fleets := []struct {
		name string
		cfgs []accel.Config
	}{
		{"4x ZCU104 (homogeneous)",
			[]accel.Config{accel.ZCU104(), accel.ZCU104(), accel.ZCU104(), accel.ZCU104()}},
		{"2x ZCU104 + 2x AlveoU50 (mixed)",
			[]accel.Config{accel.ZCU104(), accel.ZCU104(), accel.AlveoU50(), accel.AlveoU50()}},
	}
	res := &Result{
		Name:   "hetero",
		Title:  fmt.Sprintf("Heterogeneous fleet with dynamic re-caching, %d replicas — %s", replicas, w),
		Header: []string{"fleet", "p50 e2e(ms)", "p99 e2e(ms)", "SLO%", "goodput(qps)", "drops", "recaches", "recache(ms)", "avg acc%"},
	}
	// The two fleets are independent seeded runs over the shared stream,
	// so the harness runs them across workers; rows and the headline
	// metrics (last fleet wins, fleets ordered homogeneous-first) fold in
	// grid order afterwards.
	type fleetOut struct {
		row     []string
		metrics map[string]float64
	}
	outs := make([]fleetOut, len(fleets))
	err = runPoints(len(fleets), func(p int) error {
		fl := fleets[p]
		dep, err := DeployCluster(DeployOptions{Workload: w, Policy: sched.StrictLatency}, ClusterOptions{
			Accels:  fl.cfgs,
			Recache: &serving.RecachePolicy{Window: 12, MinGain: 0.02, Cooldown: 12},
		})
		if err != nil {
			return err
		}
		run, err := dep.Simulate(stream, SimOptions{LoadAware: true, Drop: true, Router: RouterFastest})
		if err != nil {
			return err
		}
		sum := run.Summary
		outs[p] = fleetOut{
			row: []string{
				fl.name, ms(sum.P50E2E), ms(sum.P99E2E), f1(sum.E2ESLO * 100),
				f1(sum.Goodput), fmt.Sprintf("%d", run.Dropped),
				fmt.Sprintf("%d", run.Recaches), ms(run.RecacheSec),
				f2(sum.AvgAccuracy),
			},
			metrics: map[string]float64{
				"goodput_qps": sum.Goodput,
				"p99_e2e_ms":  sum.P99E2E * 1e3,
			},
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, out := range outs {
		res.Rows = append(res.Rows, out.row)
		// The headline for the bench trajectory: the mixed fleet (last
		// row wins, fleets ordered homogeneous-first).
		res.Metrics = out.metrics
	}
	res.Notes = append(res.Notes,
		"per-replica latency tables: the same query is predicted (and routed) differently per board — Table 2's hardware diversity as a scenario axis",
		"re-caching is a modeled, non-free action: each switch occupies the replica for its PB fill time in virtual seconds (recache(ms) totals it)",
		"§5.4.2: neither board dominates — the mixed fleet trades small-SubNet latency (ZCU104) against large-SubNet throughput (U50)")
	return res, nil
}
