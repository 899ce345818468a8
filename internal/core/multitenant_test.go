package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"sushi/internal/accel"
	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/simq"
	"sushi/internal/workload"
)

// deployShared builds the canonical two-model test fleet: 4 replicas,
// ResNet50 + MobileNetV3, traffic-weighted partitioning.
func deployShared(t *testing.T) *ClusterDeployment {
	t.Helper()
	dep, err := DeployCluster(DeployOptions{Policy: sched.StrictLatency}, ClusterOptions{
		Replicas:  4,
		Models:    []Workload{ResNet50, MobileNetV3},
		Partition: &serving.PartitionPolicy{Mode: serving.PartitionTraffic},
	})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// mixedStream builds a seeded two-model arrival stream with feasible
// per-model budgets, each model offering `erlangs` replicas' worth of
// work.
func mixedStream(t *testing.T, dep *ClusterDeployment, n int, erlangs float64) []serving.TimedQuery {
	t.Helper()
	budgets := map[string]float64{}
	dep.Cluster.Replicas()[0].InspectTenants(func(model string, _ int64, sys *serving.System) {
		tab := sys.Table()
		budgets[model] = tab.Lookup(tab.Rows()-1, 0) * 1.6
	})
	mix := workload.Mix{}
	for _, md := range dep.Models {
		mix.Components = append(mix.Components, workload.MixComponent{
			Model:   md.Model,
			Process: workload.Poisson{Rate: erlangs / budgets[md.Model]},
		})
	}
	times, labels, err := mix.Labeled(n, 11)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]serving.TimedQuery, n)
	for i := range qs {
		qs[i] = serving.TimedQuery{
			Query:   sched.Query{ID: i, Model: labels[i], MaxLatency: budgets[labels[i]]},
			Arrival: times[i],
		}
	}
	return qs
}

// runShared simulates the mixed stream on a fresh shared fleet.
func runShared(t *testing.T, batching simq.Batching, e float64) *simq.Result {
	t.Helper()
	dep := deployShared(t)
	eng, err := simq.FromCluster(dep.Cluster, simq.Options{
		QueueCap:  4,
		Admission: simq.Degrade,
		LoadAware: true,
		Drop:      true,
		Batching:  batching,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(mixedStream(t, dep, 200, e))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMultiTenantSimulateDeterministic: identical seeds over fresh
// multi-tenant deployments give bit-identical runs.
func TestMultiTenantSimulateDeterministic(t *testing.T) {
	a, b := runShared(t, simq.Batching{}, 2), runShared(t, simq.Batching{}, 2)
	if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
		t.Fatal("multi-tenant runs diverge across identical fresh deployments")
	}
	for i := range a.Outcomes {
		if a.Service(i) != b.Service(i) {
			t.Fatalf("multi-tenant runs diverge in outcome %d's service: %+v vs %+v", i, a.Service(i), b.Service(i))
		}
		// A query's ID, floor, arrival and start live outside the record
		// or are derived from it; Timed reads them.
		ta, tb := a.Timed(i), b.Timed(i)
		if qa, qb := ta.Query, tb.Query; qa.ID != qb.ID || math.Float64bits(qa.MinAccuracy) != math.Float64bits(qb.MinAccuracy) {
			t.Fatalf("multi-tenant runs diverge in outcome %d's query: %+v vs %+v", i, qa, qb)
		}
		if math.Float64bits(ta.Arrival) != math.Float64bits(tb.Arrival) || math.Float64bits(ta.Start) != math.Float64bits(tb.Start) {
			t.Fatalf("multi-tenant runs diverge in outcome %d's instants: arrival %g/%g, start %g/%g", i, ta.Arrival, tb.Arrival, ta.Start, tb.Start)
		}
	}
	if !reflect.DeepEqual(a.Summary, b.Summary) {
		t.Error("multi-tenant summaries diverge")
	}
}

// TestMultiTenantPerModelAccounting: every outcome carries a canonical
// model id, and the per-model summary slices partition the totals
// exactly (drops included).
func TestMultiTenantPerModelAccounting(t *testing.T) {
	res := runShared(t, simq.Batching{}, 2)
	want := map[string]int{}
	drops := map[string]int{}
	for i, o := range res.Outcomes {
		m := res.Timed(i).Query.Model
		if m != string(ResNet50) && m != string(MobileNetV3) {
			t.Fatalf("outcome %d has model %q", i, m)
		}
		want[m]++
		if o.Dropped {
			drops[m]++
		}
	}
	if len(res.Summary.PerModel) != 2 {
		t.Fatalf("summary has %d per-model slices, want 2", len(res.Summary.PerModel))
	}
	queries := 0
	for _, ms := range res.Summary.PerModel {
		if ms.Queries != want[ms.Model] {
			t.Errorf("model %s: %d queries in summary, %d in outcomes", ms.Model, ms.Queries, want[ms.Model])
		}
		if ms.Dropped != drops[ms.Model] {
			t.Errorf("model %s: %d drops in summary, %d in outcomes", ms.Model, ms.Dropped, drops[ms.Model])
		}
		if ms.Queries > 0 && ms.Queries > ms.Dropped && ms.P99E2E <= 0 {
			t.Errorf("model %s: per-model p99 E2E missing", ms.Model)
		}
		queries += ms.Queries
	}
	if queries != res.Queries {
		t.Errorf("per-model slices cover %d of %d queries", queries, res.Queries)
	}
}

// TestMultiTenantBatchingNeverMixesModels: the engine's batch former
// keys on the model, so every flush is single-model even on a shared
// fleet — different models read different weights.
func TestMultiTenantBatchingNeverMixesModels(t *testing.T) {
	res := runShared(t, simq.Batching{MaxBatch: 8, Window: 0.05}, 5)
	type flushKey struct {
		replica uint16
		start   float64
	}
	flushes := map[flushKey]map[string]bool{}
	sawBatch := false
	for i, o := range res.Outcomes {
		if o.Dropped {
			continue
		}
		k := flushKey{o.Replica, res.Timed(i).Start}
		if flushes[k] == nil {
			flushes[k] = map[string]bool{}
		}
		flushes[k][res.Timed(i).Query.Model] = true
		if o.Batch > 1 {
			sawBatch = true
		}
	}
	if !sawBatch {
		t.Fatal("overloaded batched run formed no multi-query batches")
	}
	for k, models := range flushes {
		if len(models) > 1 {
			t.Fatalf("flush %+v mixed models %v in one accelerator pass", k, models)
		}
	}
}

// TestMultiTenantUnknownModelRejectedUpfront: a stream naming an
// unhosted model is rejected before any query is served.
func TestMultiTenantUnknownModelRejectedUpfront(t *testing.T) {
	dep := deployShared(t)
	eng, err := simq.FromCluster(dep.Cluster, simq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	qs := mixedStream(t, dep, 10, 2)
	qs[7].Model = "alexnet"
	_, err = eng.Run(qs)
	var unknown *serving.UnknownModelError
	if !errors.As(err, &unknown) {
		t.Fatalf("unknown model: got %v, want *UnknownModelError", err)
	}
	if n := dep.Cluster.Stats().Queries; n != 0 {
		t.Errorf("%d queries served before the invalid stream was rejected", n)
	}
}

// TestMultiTenantReplicaViews: GET /v1/replicas' backing view carries
// per-model slices with cache state and PB shares that sum to at most
// the Persistent Buffer.
func TestMultiTenantReplicaViews(t *testing.T) {
	dep := deployShared(t)
	eng, err := simq.FromCluster(dep.Cluster, simq.Options{LoadAware: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(mixedStream(t, dep, 120, 2)); err != nil {
		t.Fatal(err)
	}
	pbKB := accel.ZCU104().PBBytes >> 10
	for _, v := range ReplicaViews(dep.Cluster) {
		if len(v.Models) != 2 {
			t.Fatalf("replica %d view has %d model slices, want 2", v.ID, len(v.Models))
		}
		var shareKB int64
		queries := 0
		for _, mv := range v.Models {
			shareKB += mv.PBShareKB
			queries += mv.Queries
			if mv.PBShareKB <= 0 {
				t.Errorf("replica %d model %s has no PB share", v.ID, mv.Model)
			}
		}
		if shareKB > pbKB {
			t.Errorf("replica %d shares sum to %d KB > PB %d KB", v.ID, shareKB, pbKB)
		}
		if queries != v.Queries {
			t.Errorf("replica %d: model slices cover %d of %d queries", v.ID, queries, v.Queries)
		}
	}
}

// TestDeployClusterInvalidOptions is the table-driven audit of every
// invalid-option path DeployCluster rejects, pinning the OptionError
// field each one reports — multi-tenant errors must name the offending
// model (and hardware, via the message) rather than a generic field.
func TestDeployClusterInvalidOptions(t *testing.T) {
	valid := DeployOptions{}
	cases := []struct {
		name  string
		opt   DeployOptions
		copt  ClusterOptions
		field string
	}{
		{"negative replicas", valid, ClusterOptions{Replicas: -2}, "Replicas"},
		{"unknown router", valid, ClusterOptions{Router: "telepathy"}, "Router"},
		{"accels/replicas mismatch", valid,
			ClusterOptions{Replicas: 3, Accels: []accel.Config{accel.ZCU104()}}, "Accels"},
		{"invalid accel config", valid, ClusterOptions{Accels: []accel.Config{{}}}, "Accels"},
		{"recache MinGain out of range", valid,
			ClusterOptions{Recache: &serving.RecachePolicy{MinGain: 1.5}}, "Recache"},
		{"recache MinGain NaN", valid,
			ClusterOptions{Recache: &serving.RecachePolicy{MinGain: math.NaN()}}, "Recache"},
		{"negative batch", valid,
			ClusterOptions{Batch: &serving.BatchPolicy{MaxBatch: -1}}, "Batch"},
		{"negative batch window", valid,
			ClusterOptions{Batch: &serving.BatchPolicy{MaxBatch: 4, Window: -1}}, "Batch"},
		{"unknown model", valid,
			ClusterOptions{Models: []Workload{"alexnet"}}, "Models"},
		{"duplicate models", valid,
			ClusterOptions{Models: []Workload{ResNet50, ResNet50}}, "Models"},
		{"partition without models", valid,
			ClusterOptions{Partition: &serving.PartitionPolicy{Mode: serving.PartitionTraffic}}, "Partition"},
		{"partition with one model", valid,
			ClusterOptions{Models: []Workload{ResNet50},
				Partition: &serving.PartitionPolicy{Mode: serving.PartitionTraffic}}, "Partition"},
		{"invalid partition mode", valid,
			ClusterOptions{Models: []Workload{ResNet50, MobileNetV3},
				Partition: &serving.PartitionPolicy{Mode: serving.PartitionMode(9)}}, "Partition"},
		{"negative partition window", valid,
			ClusterOptions{Models: []Workload{ResNet50, MobileNetV3},
				Partition: &serving.PartitionPolicy{Window: -4}}, "Partition"},
		{"negative Q", DeployOptions{Q: -1}, ClusterOptions{}, "Q"},
		{"negative candidates", DeployOptions{Candidates: -3}, ClusterOptions{}, "Candidates"},
		{"negative seed", DeployOptions{Seed: -7}, ClusterOptions{}, "Seed"},
		{"bogus mode", DeployOptions{Mode: serving.Mode(9)}, ClusterOptions{}, "Mode"},
		{"bogus policy", DeployOptions{Policy: sched.Policy(9)}, ClusterOptions{}, "Policy"},
		{"bogus workload", DeployOptions{Workload: "alexnet"}, ClusterOptions{}, "Workload"},
		{"single-model fleet outgrows columns",
			DeployOptions{Workload: MobileNetV3, Candidates: 4},
			ClusterOptions{Replicas: 6}, "Replicas"},
		{"multi-model fleet outgrows fitting columns",
			DeployOptions{Candidates: 4},
			ClusterOptions{Replicas: 6, Models: []Workload{ResNet50, MobileNetV3}}, "Models"},
		{"autoscale zero min", valid,
			ClusterOptions{Autoscale: &AutoscaleOptions{Min: 0, Max: 4, Interval: 0.1}}, "Autoscale"},
		{"autoscale max below min", valid,
			ClusterOptions{Autoscale: &AutoscaleOptions{Min: 4, Max: 2, Interval: 0.1}}, "Autoscale"},
		{"autoscale zero interval", valid,
			ClusterOptions{Autoscale: &AutoscaleOptions{Min: 1, Max: 4}}, "Autoscale"},
		{"autoscale negative cooldown", valid,
			ClusterOptions{Autoscale: &AutoscaleOptions{Min: 1, Max: 4, Interval: 0.1, Cooldown: -1}}, "Autoscale"},
		{"autoscale unknown policy", valid,
			ClusterOptions{Autoscale: &AutoscaleOptions{Min: 1, Max: 4, Interval: 0.1, Policy: "vibes"}}, "Autoscale"},
		{"autoscale max/replicas mismatch", valid,
			ClusterOptions{Replicas: 3,
				Autoscale: &AutoscaleOptions{Min: 1, Max: 4, Interval: 0.1}}, "Autoscale"},
		{"autoscale max outgrows columns",
			DeployOptions{Workload: MobileNetV3, Candidates: 4},
			ClusterOptions{Autoscale: &AutoscaleOptions{Min: 2, Max: 6, Interval: 0.1}}, "Replicas"},
	}
	for _, tc := range cases {
		_, err := DeployCluster(tc.opt, tc.copt)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Errorf("%s: error %v is not an *OptionError", tc.name, err)
			continue
		}
		if oe.Field != tc.field {
			t.Errorf("%s: OptionError field %q, want %q (%v)", tc.name, oe.Field, tc.field, err)
		}
	}
}

// TestMultiTenantBootColumnErrorNamesPair: the fleet-outgrows-columns
// rejection must name the offending model and hardware so a mixed
// fleet's operator knows which pair to fix.
func TestMultiTenantBootColumnErrorNamesPair(t *testing.T) {
	_, err := DeployCluster(DeployOptions{Candidates: 4},
		ClusterOptions{Replicas: 6, Models: []Workload{ResNet50, MobileNetV3}})
	var oe *OptionError
	if !errors.As(err, &oe) {
		t.Fatalf("want *OptionError, got %v", err)
	}
	msg := err.Error()
	for _, needle := range []string{"ZCU104"} {
		if !contains(msg, needle) {
			t.Errorf("error %q does not name %q", msg, needle)
		}
	}
	if oe.Value != string(ResNet50) && oe.Value != string(MobileNetV3) {
		t.Errorf("error value %v does not name the offending model", oe.Value)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestMultiTenantExperiment: under anti-correlated per-model bursts
// (anti-phase diurnal rates, each model peaking at 1.7x its own
// 2-replica capacity while the other troughs), one shared 4-replica
// fleet with traffic-weighted PB partitioning beats a static 2+2 split
// — two single-model 2-replica fleets, each fed only its model's half
// of the same stream — on goodput at identical hardware, seeds and
// admission discipline.
func TestMultiTenantExperiment(t *testing.T) {
	const queries, seed = 400, 13
	models := []Workload{ResNet50, MobileNetV3}
	latHi := map[Workload]float64{}
	meanRate := 0.0
	for _, m := range models {
		_, hi, err := defaultSetting.probeLatencies(m)
		if err != nil {
			t.Fatal(err)
		}
		latHi[m] = hi
		meanRate += 1.7 * (2 / hi) / 2
	}
	mix := workload.Mix{}
	lats := map[string][]float64{}
	for i, m := range models {
		// Budgets leave headroom over the full-PB service latency, so SLO
		// misses come from queueing, not from the shared fleet's smaller
		// per-model PB slice.
		qs, err := workload.Uniform(queries, workload.Range{}, workload.Range{Lo: latHi[m] * 1.2, Hi: latHi[m] * 1.8}, seed+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			lats[string(m)] = append(lats[string(m)], q.MaxLatency)
		}
		// Two full cycles over the stream.
		mix.Components = append(mix.Components, workload.MixComponent{
			Model: string(m),
			Process: workload.Diurnal{BaseRate: 1.7 * (2 / latHi[m]) / 2, Amplitude: 1,
				Period: queries / meanRate / 2, Phase: float64(i) * math.Pi},
		})
	}
	times, labels, err := mix.Labeled(queries, seed)
	if err != nil {
		t.Fatal(err)
	}
	stream := make([]serving.TimedQuery, queries)
	next := map[string]int{}
	for i := range stream {
		m := labels[i]
		stream[i] = serving.TimedQuery{Query: sched.Query{ID: i, Model: m, MaxLatency: lats[m][next[m]]}, Arrival: times[i]}
		next[m]++
	}
	opt := SimOptions{QueueCap: 3, Admission: simq.Reject, LoadAware: true, Drop: true, Router: RouterLeastLoaded}
	simulate := func(dopt DeployOptions, copt ClusterOptions, qs []serving.TimedQuery) *simq.Result {
		dep, err := DeployCluster(dopt, copt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dep.Simulate(qs, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	shared := simulate(DeployOptions{Policy: sched.StrictLatency}, ClusterOptions{
		Replicas: 4, Models: models, Partition: &serving.PartitionPolicy{Mode: serving.PartitionTraffic},
	}, stream)
	// The static partition's goodput: SLO-attaining completions of both
	// fleets per second of the longer run, the quantity Summary.Goodput
	// reports for the shared fleet.
	met, span := 0.0, 0.0
	for _, m := range models {
		var sub []serving.TimedQuery
		for _, tq := range stream {
			if tq.Model == string(m) {
				tq.Model = "" // a single-model fleet has no tenant names
				sub = append(sub, tq)
			}
		}
		run := simulate(DeployOptions{Workload: m, Policy: sched.StrictLatency}, ClusterOptions{Replicas: 2}, sub)
		met += run.Summary.E2ESLO * float64(run.Queries)
		span = max(span, run.Makespan)
	}
	part := met / span
	t.Logf("goodput: shared %.2f qps, static partition %.2f qps", shared.Summary.Goodput, part)
	if shared.Summary.Goodput <= part {
		t.Errorf("shared fleet goodput %.1f does not beat the static partition's %.1f", shared.Summary.Goodput, part)
	}
	if len(shared.Summary.PerModel) != len(models) {
		t.Errorf("shared fleet reports %d per-model slices, want %d", len(shared.Summary.PerModel), len(models))
	}
}
