package core

import (
	"fmt"

	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/simq"
	"sushi/internal/workload"
)

// The skewed 100-cohort population is the canonical heterogeneous
// workload: its fleet, admission discipline and client decomposition.
// Its mean offered load is cohortLoadFactor x aggregate fleet capacity.
const (
	cohortSeed       = 37
	cohortQueueCap   = 4
	cohortReplicas   = 4
	cohortCount      = 100
	cohortLoadFactor = 0.85
	cohortZipfSkew   = 1.4
)

// cohortCalibration derives the budget distribution and total offered
// rate of the skewed population from its fleet's own latency table
// (MobileNetV3 on ZCU104): budgets leave headroom over the full-PB
// service latency so misses come from queueing, not infeasibility.
func cohortCalibration() (total float64, budget workload.Empirical, err error) {
	_, latHi, err := defaultSetting.probeLatencies(MobileNetV3)
	if err != nil {
		return 0, workload.Empirical{}, err
	}
	total = cohortLoadFactor / latHi * cohortReplicas
	budget = workload.Empirical{
		Values:  []float64{latHi * 1.4, latHi * 2.0, latHi * 3.0},
		Weights: []float64{0.5, 0.3, 0.2},
	}
	return total, budget, nil
}

// cohortPopulation is the skewed population: cohortCount cohorts whose
// rates follow a Zipf law (a few heavy hitters, a long light tail),
// each bursty — over-dispersed Gamma/Weibull spacing, never smooth
// Poisson. SLO classes tier the cohorts by rank: the heavy hitters
// are "gold", the next tier "silver", the tail "batch"; budgets are
// identically distributed across classes.
func cohortPopulation(total float64, budget workload.Empirical) workload.Population {
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

// cohortDeploy boots a fresh fleet for the skewed population (every run
// gets its own: simulated runs mutate cache state).
func cohortDeploy() (*ClusterDeployment, error) {
	return DeployCluster(DeployOptions{Workload: MobileNetV3, Policy: sched.StrictLatency},
		ClusterOptions{Replicas: cohortReplicas})
}

// cohortSimOptions is the admission discipline the skewed population
// is served under.
var cohortSimOptions = SimOptions{
	QueueCap:  cohortQueueCap,
	Admission: simq.Reject,
	LoadAware: true,
	Drop:      true,
	Router:    RouterLeastLoaded,
}

// CohortSweepTrace records the skewed 100-cohort population as a
// replayable trace v2: sushi-bench -record-trace writes it to disk,
// -replay-trace plays it back through a fresh fleet bit-exactly.
func CohortSweepTrace(queries int) (*workload.TraceV2, error) {
	if queries <= 0 {
		queries = 600
	}
	total, budget, err := cohortCalibration()
	if err != nil {
		return nil, err
	}
	return cohortPopulation(total, budget).Record(queries, cohortSeed)
}

// TraceStream pairs the first n records of a trace with their
// arrivals: the one way a trace becomes a timed stream.
func TraceStream(tr *workload.TraceV2, n int) ([]serving.TimedQuery, error) {
	qs, err := tr.Queries(n)
	if err != nil {
		return nil, err
	}
	arr, err := tr.Times(n, 0)
	if err != nil {
		return nil, err
	}
	return simq.Stream(qs, arr)
}

// ReplayTraceV2 plays a recorded trace through a fresh fleet of the
// skewed population under its admission discipline and reports the
// run. Replaying CohortSweepTrace reproduces SimulatePopulation of the
// same population and seed bit for bit (the engine pins RunProcess ==
// Run over materialized streams).
func ReplayTraceV2(tr *workload.TraceV2) (*Result, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	n := len(tr.Records)
	stream, err := TraceStream(tr, n)
	if err != nil {
		return nil, err
	}
	dep, err := cohortDeploy()
	if err != nil {
		return nil, err
	}
	run, err := dep.Simulate(stream, cohortSimOptions)
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
