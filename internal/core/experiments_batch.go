package core

import (
	"fmt"

	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/simq"
	"sushi/internal/workload"
)

// BatchSweep is the open-loop payoff curve of SubGraph-stationary
// micro-batching: a 2-replica cluster under a fixed Poisson offered
// load beyond its unbatched capacity, swept over the batch former's
// B x W grid. Queries grouped onto the same scheduled SubNet pay the
// weight fetch (PB hit or DRAM) once and only their own compute and
// activation traffic — exactly the traffic the paper shows dominates
// SubNet serving — so larger batches raise effective capacity: queues
// drain faster, E2E tails shrink, goodput climbs, and per-query
// off-chip energy falls. B=1 (or W=0) is the unbatched engine,
// bit-identical per seed to the pre-batching event loop.
func BatchSweep(w Workload, queries int) (*Result, error) {
	if queries <= 0 {
		queries = 200
	}
	const replicas = 2
	_, latHi, err := probeLatencies(w, serving.Full)
	if err != nil {
		return nil, err
	}
	// The unbatched capacity anchor: one slowest-SubNet service per
	// budgetBase, per replica. The per-query SLO is a multiple of it so
	// batched passes (weights once + B items of compute) still fit.
	budgetBase := latHi * 1.1
	budget := budgetBase * 4
	capacity := replicas / budgetBase
	rate := capacity * 2.5 // fixed offered load, all sweep points

	res := &Result{
		Name: "batchsweep",
		Title: fmt.Sprintf("Micro-batching B x W sweep at %.1fx unbatched capacity, %d replicas — %s",
			2.5, replicas, w),
		Header:  []string{"B", "W(ms)", "avg batch", "goodput(qps)", "p50 e2e(ms)", "p99 e2e(ms)", "SLO%", "drops", "energy/q(uJ)"},
		Metrics: map[string]float64{},
	}
	arr, err := workload.Poisson{Rate: rate}.Times(queries, 11)
	if err != nil {
		return nil, err
	}
	// The effective grid: B=1 is one unbatched anchor row; B>1 points
	// take the nonzero window. Each point is an independent seeded
	// deployment, so the harness runs them across workers and the
	// order-dependent Metrics fold happens afterwards in grid order.
	type bwPoint struct {
		b   int
		win float64
	}
	grid := []bwPoint{{1, 0}, {2, budgetBase / 2}, {4, budgetBase / 2}, {8, budgetBase / 2}}
	type bsOut struct {
		row                                []string
		b                                  int
		goodput, p99ms, avgBatch, energyUJ float64
	}
	outs := make([]bsOut, len(grid))
	err = runPoints(len(grid), func(p int) error {
		b, win := grid[p].b, grid[p].win
		// A fresh fleet per point (the build memo shares the table):
		// every sweep point is an independent deployment, per-seed
		// reproducible.
		dep, err := DeployCluster(DeployOptions{Workload: w, Policy: sched.StrictLatency},
			ClusterOptions{Replicas: replicas})
		if err != nil {
			return err
		}
		qs := make([]serving.TimedQuery, queries)
		for i := range qs {
			qs[i] = serving.TimedQuery{
				Query:   sched.Query{ID: i, MaxLatency: budget},
				Arrival: arr[i],
			}
		}
		run, err := dep.Simulate(qs, SimOptions{LoadAware: true, Drop: true, Router: RouterLeastLoaded,
			Batching: simq.Batching{MaxBatch: b, Window: win}})
		if err != nil {
			return err
		}
		sum := run.Summary
		avgBatch := 1.0
		if sum.Batches > 0 {
			avgBatch = sum.AvgBatchSize
		}
		energyPerQ := 0.0
		if run.Served > 0 {
			energyPerQ = sum.OffChipEnergyJ / float64(run.Served) * 1e6
		}
		outs[p] = bsOut{
			row: []string{
				fmt.Sprintf("%d", b), ms(win), f2(avgBatch), f1(sum.Goodput),
				ms(sum.P50E2E), ms(sum.P99E2E), f1(sum.E2ESLO * 100),
				fmt.Sprintf("%d", run.Dropped), f2(energyPerQ),
			},
			b: b, goodput: sum.Goodput, p99ms: sum.P99E2E * 1e3, avgBatch: avgBatch, energyUJ: energyPerQ,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, out := range outs {
		res.Rows = append(res.Rows, out.row)
		res.Metrics[fmt.Sprintf("goodput_b%d_qps", out.b)] = out.goodput
		res.Metrics[fmt.Sprintf("avg_batch_b%d", out.b)] = out.avgBatch
		res.Metrics[fmt.Sprintf("energy_b%d_uj", out.b)] = out.energyUJ
		if out.b == 1 {
			res.Metrics["p99_b1_ms"] = out.p99ms
		}
		// Canonical headline keys track the best sweep point.
		if out.goodput > res.Metrics["goodput_qps"] {
			res.Metrics["goodput_qps"] = out.goodput
			res.Metrics["p99_e2e_ms"] = out.p99ms
		}
	}
	res.Notes = append(res.Notes,
		"weights fetched once per batch: B queries on one SubNet cost one weight fetch + B x (compute + activations)",
		"beyond unbatched capacity, batching raises effective capacity — queues drain, goodput climbs, tails shrink",
		"per-query off-chip energy falls with B: the amortized fetch is the dominant traffic (the paper's premise)")
	return res, nil
}
