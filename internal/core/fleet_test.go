package core

import (
	"testing"

	"sushi/internal/accel"
	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/simq"
	"sushi/internal/workload"
)

// TestHeteroExperiment serves one seeded bursty OnOff stream whose
// latency budgets drift from loose to tight on a homogeneous 4x ZCU104
// fleet and on a mixed 2x ZCU104 + 2x AlveoU50 fleet, both re-caching
// under the hardware-aware "fastest" router. The two compositions must
// be distinguishable on p99 or SLO, every fleet must report a tail, and
// a fleet that switches its cache (at least one does) is charged fill
// time for it.
func TestHeteroExperiment(t *testing.T) {
	const queries = 120
	latLo, latHi, err := defaultSetting.probeLatencies(MobileNetV3)
	if err != nil {
		t.Fatal(err)
	}
	capacity := 4 / (latHi * 1.1)
	arr, err := workload.OnOff{
		OnRate:  capacity * 2.5,
		OffRate: capacity * 0.4,
		MeanOn:  queries / (4 * capacity),
		MeanOff: queries / (4 * capacity),
	}.Times(queries, 7)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := workload.Drifting(queries, workload.Range{}, workload.Range{},
		workload.Range{Lo: latHi * 0.9, Hi: latHi * 1.1}, workload.Range{Lo: latLo * 0.9, Hi: latLo * 1.4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := simq.Stream(qs, arr)
	if err != nil {
		t.Fatal(err)
	}
	z, u := accel.ZCU104(), accel.AlveoU50()
	var runs []*simq.Result
	switched := false
	for _, cfgs := range [][]accel.Config{{z, z, z, z}, {z, z, u, u}} {
		dep, err := DeployCluster(DeployOptions{Workload: MobileNetV3, Policy: sched.StrictLatency}, ClusterOptions{
			Accels:  cfgs,
			Recache: &serving.RecachePolicy{Window: 12, MinGain: 0.02, Cooldown: 12},
		})
		if err != nil {
			t.Fatal(err)
		}
		run, err := dep.Simulate(stream, SimOptions{LoadAware: true, Drop: true, Router: RouterFastest})
		if err != nil {
			t.Fatal(err)
		}
		switched = switched || run.Recaches > 0
		if ms(run.Summary.P99E2E) == ms(0) || run.Recaches > 0 && ms(run.RecacheSec) == ms(0) {
			t.Errorf("fleet %d: p99 %v, %d cache switches charged %v s", len(runs), run.Summary.P99E2E, run.Recaches, run.RecacheSec)
		}
		runs = append(runs, run)
	}
	// Distinguishable as rendered: p99 to the microsecond, SLO to 0.1 %.
	homo, mixed := runs[0].Summary, runs[1].Summary
	if ms(homo.P99E2E) == ms(mixed.P99E2E) && f1(homo.E2ESLO*100) == f1(mixed.E2ESLO*100) {
		t.Errorf("homogeneous and mixed fleets indistinguishable: p99 %s ms, SLO %s %%", ms(homo.P99E2E), f1(homo.E2ESLO*100))
	}
	if !switched {
		t.Error("no fleet enacted a modeled cache switch")
	}
}

// TestBatchSweepExperiment plays one Poisson stream at 2.5x a
// 2-replica fleet's unbatched capacity through fresh fleets batching
// B = 1, 2, 4 and 8 queries per pass. Every B > 1 must form real
// batches, raise goodput above B = 1's and lower the off-chip energy
// per served query: the weight fetch is paid once per batch.
func TestBatchSweepExperiment(t *testing.T) {
	const queries, replicas = 160, 2
	for _, w := range []Workload{MobileNetV3, ResNet50} {
		_, latHi, err := defaultSetting.probeLatencies(w)
		if err != nil {
			t.Fatal(err)
		}
		svc := latHi * 1.1
		arr, err := workload.Poisson{Rate: replicas / svc * 2.5}.Times(queries, 11)
		if err != nil {
			t.Fatal(err)
		}
		qs := make([]serving.TimedQuery, queries)
		for i := range qs {
			qs[i] = serving.TimedQuery{Query: sched.Query{ID: i, MaxLatency: svc * 4}, Arrival: arr[i]}
		}
		var goodput1, energy1 float64
		for _, b := range []int{1, 2, 4, 8} {
			dep, err := DeployCluster(DeployOptions{Workload: w, Policy: sched.StrictLatency},
				ClusterOptions{Replicas: replicas})
			if err != nil {
				t.Fatal(err)
			}
			run, err := dep.Simulate(qs, SimOptions{LoadAware: true, Drop: true, Router: RouterLeastLoaded,
				Batching: simq.Batching{MaxBatch: b, Window: svc / 2}})
			if err != nil {
				t.Fatal(err)
			}
			sum := run.Summary
			energy := sum.OffChipEnergyJ / float64(run.Served)
			if b == 1 {
				goodput1, energy1 = sum.Goodput, energy
				continue
			}
			if sum.Goodput <= goodput1 {
				t.Errorf("%s: B=%d goodput %.1f not above B=1 %.1f", w, b, sum.Goodput, goodput1)
			}
			if energy >= energy1 {
				t.Errorf("%s: B=%d energy/query %.3g J not below B=1 %.3g J", w, b, energy, energy1)
			}
			if sum.Batches == 0 || sum.AvgBatchSize <= 1 {
				t.Errorf("%s: B=%d average batch %.2f never exceeded 1", w, b, sum.AvgBatchSize)
			}
		}
	}
}
