package core

import (
	"fmt"

	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/simq"
	"sushi/internal/workload"
)

// Elastic experiment constants: the admission discipline both fleets
// face (bounded queues, rejection, deadline drops, load-aware budget
// debiting) and the diurnal swing. baseFactor x per-replica capacity is
// the MEAN offered load; with amplitude 1 the peak offers 2x that — 8
// replica-capacities against the fixed fleet's 6 — while the trough
// offers almost nothing, which is exactly the gap an autoscaler
// monetizes.
const (
	elasticQueueCap   = 4
	elasticSeed       = 29
	elasticBaseFactor = 4.0
	elasticAmplitude  = 1.0
	elasticFixed      = 6
	elasticMin        = 2
	elasticMax        = 8
)

// elasticSimOptions is the queueing discipline both fleets share;
// each inherits its own deployment's autoscale configuration.
var elasticSimOptions = SimOptions{
	QueueCap:  elasticQueueCap,
	Admission: simq.Reject,
	LoadAware: true,
	Drop:      true,
	Router:    RouterLeastLoaded,
}

// Elastic is the autoscaling experiment: ONE diurnal MobileNetV3 stream
// (two full day/night cycles, seeded budgets) served by (a) a fixed
// 6-replica fleet and (b) an elastic 2..8 fleet under the
// target-utilization policy. The fixed fleet is sized for the mean: its
// peaks overload it (deadline misses and rejections) while its troughs
// idle five of six replicas; the elastic fleet boots standby replicas
// into the peak — each paying its cold Persistent Buffer fill in
// virtual time, the paper's re-cache cost applied to a scale-up — and
// drains them through the trough, beating the fixed fleet on BOTH SLO
// attainment and replica-seconds.
func Elastic(queries int) (*Result, error) {
	if queries <= 0 {
		queries = 600
	}
	// Calibrate budgets and per-replica capacity from the fleet's own
	// latency table (MobileNetV3 on ZCU104), mirroring the multitenant
	// experiment: budgets leave headroom over the full-PB service
	// latency so misses come from queueing, not infeasibility.
	_, latHi, err := probeLatencies(MobileNetV3, serving.Full)
	if err != nil {
		return nil, err
	}
	budgets := workload.Range{Lo: latHi * 1.2, Hi: latHi * 1.8}
	cap := 1 / latHi

	// Two full diurnal cycles over the stream; the mean rate of the
	// sinusoid is its base rate.
	base := elasticBaseFactor * cap
	period := float64(queries) / base / 2
	proc := workload.Diurnal{BaseRate: base, Amplitude: elasticAmplitude, Period: period}
	times, err := proc.Times(queries, elasticSeed)
	if err != nil {
		return nil, err
	}
	cons, err := workload.Uniform(queries, workload.Range{}, budgets, elasticSeed)
	if err != nil {
		return nil, err
	}
	stream := make([]serving.TimedQuery, queries)
	for i := range stream {
		stream[i] = serving.TimedQuery{
			Query:   sched.Query{ID: i, MaxLatency: cons[i].MaxLatency},
			Arrival: times[i],
		}
	}

	res := &Result{
		Name: "elastic",
		Title: fmt.Sprintf("Elastic %d..%d fleet vs fixed %d replicas, %d queries, diurnal load",
			elasticMin, elasticMax, elasticFixed, queries),
		Header: []string{"fleet", "replica-s", "SLO%", "p99 e2e(ms)", "drops",
			"scale-ups", "scale-downs"},
	}

	// The two fleets are independent seeded runs over the shared stream,
	// so the harness runs them across workers; comparison rows fold in
	// grid order afterwards.
	runs := make([]*simq.Result, 2)
	err = runPoints(len(runs), func(p int) error {
		var dep *ClusterDeployment
		var err error
		if p == 0 {
			// (a) Fixed fleet: 6 replicas, no autoscaler.
			dep, err = DeployCluster(DeployOptions{Workload: MobileNetV3, Policy: sched.StrictLatency},
				ClusterOptions{Replicas: elasticFixed})
		} else {
			// (b) Elastic fleet: 8 replicas built, 2..7 starting standby, the
			// target-utilization policy evaluated 64 times per diurnal cycle.
			dep, err = DeployCluster(DeployOptions{Workload: MobileNetV3, Policy: sched.StrictLatency},
				ClusterOptions{Autoscale: &AutoscaleOptions{
					Min:      elasticMin,
					Max:      elasticMax,
					Policy:   "utilization",
					Interval: period / 64,
				}})
		}
		if err != nil {
			return err
		}
		runs[p], err = dep.Simulate(stream, elasticSimOptions)
		return err
	})
	if err != nil {
		return nil, err
	}
	fixedRun, elasticRun := runs[0], runs[1]
	res.Rows = append(res.Rows, elasticRow(fmt.Sprintf("%dx fixed", elasticFixed), fixedRun))
	res.Rows = append(res.Rows, elasticRow(
		fmt.Sprintf("%d..%d elastic (utilization)", elasticMin, elasticMax), elasticRun))

	res.Metrics = map[string]float64{
		"fixed_replica_seconds":   fixedRun.ReplicaSeconds,
		"elastic_replica_seconds": elasticRun.ReplicaSeconds,
		"fixed_slo":               fixedRun.Summary.E2ESLO,
		"elastic_slo":             elasticRun.Summary.E2ESLO,
		"slo":                     elasticRun.Summary.E2ESLO,
		"goodput_qps":             elasticRun.Summary.Goodput,
		"p99_e2e_ms":              elasticRun.Summary.P99E2E * 1e3,
		"scale_ups":               float64(elasticRun.ScaleUps),
		"scale_downs":             float64(elasticRun.ScaleDowns),
	}
	res.Notes = append(res.Notes,
		"identical stream, seeds and admission discipline; only the fleet's elasticity differs",
		fmt.Sprintf("diurnal load: mean %.1fx one replica's capacity, peaks at %.1fx against the fixed fleet's %d — the fixed fleet drops at every peak and idles at every trough",
			elasticBaseFactor, elasticBaseFactor*(1+elasticAmplitude), elasticFixed),
		"every scale-up pays the cold Persistent Buffer fill in virtual time (the paper's re-cache cost applied to replica boot); scale-downs drain queued and in-flight work before retiring",
		fmt.Sprintf("replica-seconds (admitting capacity integral): fixed %.2f vs elastic %.2f; SLO: fixed %.1f%% vs elastic %.1f%%",
			fixedRun.ReplicaSeconds, elasticRun.ReplicaSeconds,
			fixedRun.Summary.E2ESLO*100, elasticRun.Summary.E2ESLO*100))
	return res, nil
}

// elasticRow renders one fleet's cost and service columns.
func elasticRow(name string, run *simq.Result) []string {
	sum := run.Summary
	return []string{
		name, f2(run.ReplicaSeconds), f1(sum.E2ESLO * 100), ms(sum.P99E2E),
		fmt.Sprintf("%d", run.Dropped),
		fmt.Sprintf("%d", run.ScaleUps), fmt.Sprintf("%d", run.ScaleDowns),
	}
}
