package core

import (
	"fmt"
	"reflect"
	"testing"

	"sushi/internal/simq"
	"sushi/internal/workload"
)

// cohortArms serves identical mean load arriving as (a) one smooth
// Poisson stream, (b) the skewed 100-cohort population, and (c) the
// same population with the degrade valve and micro-batching switched
// on, each on a fresh fleet. Budgets are identically distributed in
// every arm; only the arrival structure (and arm c's levers) differs.
func cohortArms(t *testing.T, queries int) [3]*simq.Result {
	t.Helper()
	total, budget, err := cohortCalibration()
	if err != nil {
		t.Fatal(err)
	}
	_, latHi, err := defaultSetting.probeLatencies(MobileNetV3)
	if err != nil {
		t.Fatal(err)
	}
	poisson := workload.Population{Cohorts: []workload.Cohort{{SLOClass: "all", Rate: total, Budget: budget}}}
	skewed := cohortPopulation(total, budget)
	valve := cohortSimOptions
	valve.Admission = simq.Degrade
	valve.Batching = simq.Batching{MaxBatch: 4, Window: latHi * 0.75}
	var runs [3]*simq.Result
	for i, arm := range []struct {
		pop workload.Population
		opt SimOptions
	}{{poisson, cohortSimOptions}, {skewed, cohortSimOptions}, {skewed, valve}} {
		dep, err := cohortDeploy()
		if err != nil {
			t.Fatal(err)
		}
		if runs[i], err = dep.SimulatePopulation(queries, arm.pop, cohortSeed, arm.opt); err != nil {
			t.Fatal(err)
		}
	}
	return runs
}

// TestCohortSweepExperiment: the skewed 100-cohort population at the
// SAME mean load as a plain Poisson stream degrades tail latency and
// SLO attainment, and the degrade valve + micro-batching recover part
// of the SLO loss.
func TestCohortSweepExperiment(t *testing.T) {
	runs := cohortArms(t, 600)
	pois, skew, valve := runs[0].Summary, runs[1].Summary, runs[2].Summary
	t.Logf("p99 e2e: poisson %.3f cohort %.3f valve %.3f s; SLO: poisson %.3f cohort %.3f valve %.3f; jain %.3f",
		pois.P99E2E, skew.P99E2E, valve.P99E2E, pois.E2ESLO, skew.E2ESLO, valve.E2ESLO, skew.FairnessJain)
	if skew.P99E2E <= pois.P99E2E {
		t.Errorf("skewed cohorts p99 %.4f s !> poisson p99 %.4f s at identical mean load", skew.P99E2E, pois.P99E2E)
	}
	if skew.E2ESLO >= pois.E2ESLO {
		t.Errorf("skewed cohorts SLO %.3f !< poisson SLO %.3f", skew.E2ESLO, pois.E2ESLO)
	}
	if valve.E2ESLO <= skew.E2ESLO {
		t.Errorf("degrade valve + batching SLO %.3f !> reject-only cohort SLO %.3f", valve.E2ESLO, skew.E2ESLO)
	}
	if !(skew.FairnessJain > 0 && skew.FairnessJain <= 1) {
		t.Errorf("Jain index %.3f outside (0, 1]", skew.FairnessJain)
	}
}

// TestCohortSweepDeterministic reruns the three arms and expects
// identical results: cohort arrivals, empirical marks and the valve arm
// all run on seeded RNGs.
func TestCohortSweepDeterministic(t *testing.T) {
	if a, b := cohortArms(t, 300), cohortArms(t, 300); !reflect.DeepEqual(a, b) {
		t.Error("cohort arms differ across reruns")
	}
}

// TestCohortTraceReplayMatchesSweep closes the loop between the trace
// pair and the lazy population path: ReplayTraceV2 of CohortSweepTrace
// reports exactly the run SimulatePopulation makes of the same
// population and seed on a fresh fleet, and replays identically twice.
func TestCohortTraceReplayMatchesSweep(t *testing.T) {
	const n = 200
	tr, err := CohortSweepTrace(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != n || len(tr.Cohorts) != cohortCount {
		t.Fatalf("trace shape: %d records, %d cohorts", len(tr.Records), len(tr.Cohorts))
	}
	total, budget, err := cohortCalibration()
	if err != nil {
		t.Fatal(err)
	}
	dep, err := cohortDeploy()
	if err != nil {
		t.Fatal(err)
	}
	live, err := dep.SimulatePopulation(n, cohortPopulation(total, budget), cohortSeed, cohortSimOptions)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayTraceV2(tr)
	if err != nil {
		t.Fatal(err)
	}
	sum := live.Summary
	want := map[string]float64{
		"goodput_qps":   sum.Goodput,
		"p99_e2e_ms":    sum.P99E2E * 1e3,
		"slo":           sum.E2ESLO,
		"fairness_jain": sum.FairnessJain,
	}
	if !reflect.DeepEqual(res.Metrics, want) {
		t.Errorf("replay metrics %v, population run %v", res.Metrics, want)
	}
	if len(res.Rows) != 1+len(sum.PerClass) || res.Rows[0][4] != fmt.Sprint(live.Dropped) {
		t.Errorf("replay rows %v, population run %d drops over %d classes", res.Rows, live.Dropped, len(sum.PerClass))
	}
	if sum.Goodput <= 0 || sum.E2ESLO <= 0 || sum.E2ESLO > 1 {
		t.Errorf("degenerate run: goodput %.2f qps, SLO %.3f", sum.Goodput, sum.E2ESLO)
	}
	res2, err := ReplayTraceV2(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Errorf("trace replay varies across runs:\n%v\n%v", res, res2)
	}
}
