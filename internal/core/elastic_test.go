package core

import (
	"reflect"
	"testing"

	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/simq"
	"sushi/internal/workload"
)

// elasticRuns serves ONE diurnal MobileNetV3 stream (two day/night
// cycles whose mean offers 4x one replica's capacity and whose peak 8x,
// seeded budgets) on (a) a fixed 6-replica fleet and (b) an elastic
// 2..8 fleet under the target-utilization policy, each fresh, under the
// same bounded-queue admission discipline.
func elasticRuns(t *testing.T, queries int) (fixed, elastic *simq.Result) {
	t.Helper()
	_, latHi, err := defaultSetting.probeLatencies(MobileNetV3)
	if err != nil {
		t.Fatal(err)
	}
	base := 4 / latHi
	period := float64(queries) / base / 2
	times, err := workload.Diurnal{BaseRate: base, Amplitude: 1, Period: period}.Times(queries, 29)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := workload.Uniform(queries, workload.Range{}, workload.Range{Lo: latHi * 1.2, Hi: latHi * 1.8}, 29)
	if err != nil {
		t.Fatal(err)
	}
	stream := make([]serving.TimedQuery, queries)
	for i := range stream {
		stream[i] = serving.TimedQuery{Query: sched.Query{ID: i, MaxLatency: cons[i].MaxLatency}, Arrival: times[i]}
	}
	run := func(copt ClusterOptions) *simq.Result {
		dep, err := DeployCluster(DeployOptions{Workload: MobileNetV3, Policy: sched.StrictLatency}, copt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dep.Simulate(stream, SimOptions{
			QueueCap: 4, Admission: simq.Reject, LoadAware: true, Drop: true, Router: RouterLeastLoaded,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	return run(ClusterOptions{Replicas: 6}),
		run(ClusterOptions{Autoscale: &AutoscaleOptions{Min: 2, Max: 8, Policy: "utilization", Interval: period / 64}})
}

// TestElasticExperiment: under the diurnal workload the autoscaled 2..8
// fleet beats the fixed 6-replica fleet on BOTH cost (replica-seconds
// of admitting capacity) and SLO attainment, and actually scales both
// ways (an inert autoscaler would tie on SLO at best and lose on cost).
func TestElasticExperiment(t *testing.T) {
	fixed, elastic := elasticRuns(t, 600)
	t.Logf("replica-seconds: fixed %.2f elastic %.2f; SLO: fixed %.3f elastic %.3f; %d up %d down",
		fixed.ReplicaSeconds, elastic.ReplicaSeconds,
		fixed.Summary.E2ESLO, elastic.Summary.E2ESLO, elastic.ScaleUps, elastic.ScaleDowns)
	if elastic.ReplicaSeconds >= fixed.ReplicaSeconds {
		t.Errorf("elastic replica-seconds %.2f !< fixed %.2f", elastic.ReplicaSeconds, fixed.ReplicaSeconds)
	}
	if elastic.Summary.E2ESLO <= fixed.Summary.E2ESLO {
		t.Errorf("elastic SLO %.3f !> fixed %.3f", elastic.Summary.E2ESLO, fixed.Summary.E2ESLO)
	}
	if elastic.ScaleUps == 0 || elastic.ScaleDowns == 0 {
		t.Errorf("elastic fleet never scaled: %d ups, %d downs", elastic.ScaleUps, elastic.ScaleDowns)
	}
}

// TestElasticExperimentDeterministic reruns both fleets and expects
// identical results: replica lifecycle events run on the engine's
// virtual-time cadence, so elastic runs reproduce per seed exactly like
// fixed-fleet ones.
func TestElasticExperimentDeterministic(t *testing.T) {
	fa, ea := elasticRuns(t, 300)
	fb, eb := elasticRuns(t, 300)
	if !reflect.DeepEqual(fa, fb) || !reflect.DeepEqual(ea, eb) {
		t.Error("fleet runs differ across reruns")
	}
}
