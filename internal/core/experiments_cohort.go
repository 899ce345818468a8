package core

import (
	"fmt"

	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/simq"
	"sushi/internal/workload"
)

// Cohortsweep experiment constants: the fleet, the admission
// discipline, and the skewed client decomposition. The mean offered
// load is cohortLoadFactor x aggregate fleet capacity in BOTH arms —
// the experiment's whole point is that the same mean load arrives
// either as one smooth Poisson stream or as a Zipf-skewed population
// of bursty client cohorts, and only the arrival structure differs.
const (
	cohortSeed       = 37
	cohortQueueCap   = 4
	cohortReplicas   = 4
	cohortCount      = 100
	cohortLoadFactor = 0.85
	cohortZipfSkew   = 1.4
)

// cohortSweepCalibration derives the budget distribution and total
// offered rate from the fleet's own latency table (MobileNetV3 on
// ZCU104, like the elastic experiment): budgets leave headroom over
// the full-PB service latency so misses come from queueing, not
// infeasibility.
func cohortSweepCalibration() (total float64, budget workload.Empirical, latHi float64, err error) {
	_, latHi, err = probeLatencies(MobileNetV3, serving.Full)
	if err != nil {
		return 0, workload.Empirical{}, 0, err
	}
	total = cohortLoadFactor / latHi * cohortReplicas
	// The empirical budget mix is shared by every cohort AND the
	// Poisson baseline, so the two arms face identically distributed
	// constraints — only arrival structure separates them.
	budget = workload.Empirical{
		Values:  []float64{latHi * 1.4, latHi * 2.0, latHi * 3.0},
		Weights: []float64{0.5, 0.3, 0.2},
	}
	return total, budget, latHi, nil
}

// cohortSweepPopulation is the skewed arm: cohortCount cohorts whose
// rates follow a Zipf law (a few heavy hitters, a long light tail),
// each bursty — over-dispersed Gamma/Weibull spacing, never smooth
// Poisson. SLO classes tier the cohorts by rank: the heavy hitters
// are "gold", the next tier "silver", the tail "batch"; budgets are
// identically distributed across classes, so the per-class breakdown
// isolates what burstiness and skew alone do to each tier.
func cohortSweepPopulation(total float64, budget workload.Empirical) workload.Population {
	rates := workload.ZipfRates(cohortCount, total, cohortZipfSkew)
	cohorts := make([]workload.Cohort, cohortCount)
	for i, r := range rates {
		c := workload.Cohort{Rate: r, Budget: budget}
		switch {
		case i < 5:
			c.SLOClass = "gold"
			c.InterArrival = workload.IAGamma
			c.Shape = 0.25
		case i < 20:
			c.SLOClass = "silver"
			c.InterArrival = workload.IAWeibull
			c.Shape = 0.55
		default:
			c.SLOClass = "batch"
			c.InterArrival = workload.IAGamma
			c.Shape = 0.45
		}
		cohorts[i] = c
	}
	return workload.Population{Cohorts: cohorts}
}

// cohortSweepDeploy boots a fresh cohortsweep fleet (every arm gets
// its own: simulated runs mutate cache state).
func cohortSweepDeploy() (*ClusterDeployment, error) {
	return DeployCluster(DeployOptions{Workload: MobileNetV3, Policy: sched.StrictLatency},
		ClusterOptions{Replicas: cohortReplicas})
}

// cohortSimOptions is the cohortsweep admission discipline; the arms
// vary only the overflow policy and the batch former.
func cohortSimOptions(adm simq.Admission, b simq.Batching) SimOptions {
	return SimOptions{
		QueueCap:  cohortQueueCap,
		Admission: adm,
		LoadAware: true,
		Drop:      true,
		Router:    RouterLeastLoaded,
		Batching:  b,
	}
}

// CohortSweep compares identical mean load arriving as (a) one smooth
// Poisson stream, (b) a Zipf-skewed population of 100 bursty client
// cohorts, and (c) the same skewed population with the degrade valve
// and micro-batching switched on. Budgets are identically distributed
// in every arm; (b) shows the p99/SLO damage heterogeneous arrival
// structure does at unchanged mean load, (c) how much of it the
// serving-side levers claw back. The skewed arms carry per-SLO-class
// breakdowns and the Jain fairness index.
func CohortSweep(queries int) (*Result, error) {
	if queries <= 0 {
		queries = 600
	}
	total, budget, latHi, err := cohortSweepCalibration()
	if err != nil {
		return nil, err
	}
	poisson := workload.Population{Cohorts: []workload.Cohort{
		{SLOClass: "all", Rate: total, Budget: budget},
	}}
	skewed := cohortSweepPopulation(total, budget)

	arms := []struct {
		name      string
		pop       workload.Population
		admission simq.Admission
		batching  simq.Batching
	}{
		{name: "poisson", pop: poisson, admission: simq.Reject},
		{name: "100 cohorts (zipf, bursty)", pop: skewed, admission: simq.Reject},
		{name: "100 cohorts + degrade + batch", pop: skewed, admission: simq.Degrade,
			batching: simq.Batching{MaxBatch: 4, Window: latHi * 0.75}},
	}

	res := &Result{
		Name: "cohortsweep",
		Title: fmt.Sprintf("Skewed %d-cohort population vs plain Poisson at identical mean load (%.0f q/s, %d queries, %d replicas)",
			cohortCount, total, queries, cohortReplicas),
		Header: []string{"arm", "goodput", "SLO%", "p99 e2e(ms)", "drops", "fairness"},
	}
	// The three arms are independent seeded runs (each over its own
	// fresh fleet), so the harness runs them across workers; rows fold
	// in arm order afterwards.
	runs := make([]*simq.Result, len(arms))
	err = runPoints(len(arms), func(i int) error {
		arm := arms[i]
		dep, err := cohortSweepDeploy()
		if err != nil {
			return err
		}
		runs[i], err = dep.SimulatePopulation(queries, arm.pop, cohortSeed,
			cohortSimOptions(arm.admission, arm.batching))
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, arm := range arms {
		sum := runs[i].Summary
		res.Rows = append(res.Rows, []string{
			arm.name, f2(sum.Goodput), f1(sum.E2ESLO * 100), ms(sum.P99E2E),
			fmt.Sprintf("%d", runs[i].Dropped), f2(sum.FairnessJain),
		})
	}
	// Per-class rows of the bursty arm: where the damage lands.
	for _, cs := range runs[1].Summary.PerClass {
		res.Rows = append(res.Rows, []string{
			"  class " + cs.Class, f2(cs.Goodput), f1(cs.E2ESLO * 100), ms(cs.P99E2E),
			fmt.Sprintf("%d", cs.Dropped), "",
		})
	}

	pois, skew, valve := runs[0].Summary, runs[1].Summary, runs[2].Summary
	res.Metrics = map[string]float64{
		"poisson_p99_e2e_ms": pois.P99E2E * 1e3,
		"cohort_p99_e2e_ms":  skew.P99E2E * 1e3,
		"valve_p99_e2e_ms":   valve.P99E2E * 1e3,
		"poisson_slo":        pois.E2ESLO,
		"cohort_slo":         skew.E2ESLO,
		"valve_slo":          valve.E2ESLO,
		"fairness_jain":      skew.FairnessJain,
		"goodput_qps":        skew.Goodput,
		"p99_e2e_ms":         skew.P99E2E * 1e3,
	}
	res.Notes = append(res.Notes,
		"identical mean offered load, budget distribution, fleet and admission discipline in every arm; only arrival structure (and arm 3's valve+batching) differs",
		fmt.Sprintf("skew: zipf s=%.1f over %d cohorts (top cohort carries ~%.0f%% of the load); burstiness: gamma/weibull shapes 0.25-0.55 (CV > 1)",
			cohortZipfSkew, cohortCount, 100*workload.ZipfRates(cohortCount, 1, cohortZipfSkew)[0]),
		fmt.Sprintf("p99 e2e: poisson %.1f ms vs cohorts %.1f ms; SLO: %.1f%% vs %.1f%%; degrade+batch recovers to %.1f%%",
			pois.P99E2E*1e3, skew.P99E2E*1e3, pois.E2ESLO*100, skew.E2ESLO*100, valve.E2ESLO*100),
		"classes tier cohorts by rate rank (gold = heavy hitters) under identically distributed budgets; fairness is the Jain index over per-class SLO attainment")
	return res, nil
}

// CohortSweepTrace records the cohortsweep skewed population — the
// canonical heterogeneous workload — as a replayable trace v2:
// sushi-bench -record-trace writes it to disk, -replay-trace plays it
// back through a fresh cohortsweep fleet bit-exactly.
func CohortSweepTrace(queries int) (*workload.TraceV2, error) {
	if queries <= 0 {
		queries = 600
	}
	total, budget, _, err := cohortSweepCalibration()
	if err != nil {
		return nil, err
	}
	return cohortSweepPopulation(total, budget).Record(queries, cohortSeed)
}

// ReplayTraceV2 plays a recorded trace through a fresh cohortsweep
// fleet under the experiment's baseline discipline and reports the
// run. Replaying CohortSweepTrace reproduces the cohortsweep skewed
// arm's Result bit for bit (the engine pins RunProcess == Run over
// materialized streams).
func ReplayTraceV2(tr *workload.TraceV2) (*Result, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	n := len(tr.Records)
	qs, err := tr.Queries(n)
	if err != nil {
		return nil, err
	}
	times, err := tr.Times(n, 0)
	if err != nil {
		return nil, err
	}
	stream := make([]serving.TimedQuery, n)
	for i := range stream {
		stream[i] = serving.TimedQuery{Query: qs[i], Arrival: times[i]}
	}
	dep, err := cohortSweepDeploy()
	if err != nil {
		return nil, err
	}
	run, err := dep.Simulate(stream, cohortSimOptions(simq.Reject, simq.Batching{}))
	if err != nil {
		return nil, err
	}
	sum := run.Summary
	res := &Result{
		Name:   "replay",
		Title:  fmt.Sprintf("Trace v2 replay: %d records, %d cohorts, seed %d", n, len(tr.Cohorts), tr.Seed),
		Header: []string{"arm", "goodput", "SLO%", "p99 e2e(ms)", "drops", "fairness"},
		Rows: [][]string{{
			"replay", f2(sum.Goodput), f1(sum.E2ESLO * 100), ms(sum.P99E2E),
			fmt.Sprintf("%d", run.Dropped), f2(sum.FairnessJain),
		}},
		Metrics: map[string]float64{
			"goodput_qps":   sum.Goodput,
			"p99_e2e_ms":    sum.P99E2E * 1e3,
			"slo":           sum.E2ESLO,
			"fairness_jain": sum.FairnessJain,
		},
	}
	for _, cs := range sum.PerClass {
		res.Rows = append(res.Rows, []string{
			"  class " + cs.Class, f2(cs.Goodput), f1(cs.E2ESLO * 100), ms(cs.P99E2E),
			fmt.Sprintf("%d", cs.Dropped), "",
		})
	}
	return res, nil
}
