// Benchmarks regenerating every table and figure of the paper's
// evaluation (docs/ARCHITECTURE.md's "Paper section → code" table is the
// per-experiment index). Each benchmark runs the corresponding
// experiment end to end and reports the paper's headline metric via
// b.ReportMetric, so `go test -bench=.` doubles as a reproduction run.
// Hot-path microbenchmarks at the bottom track the per-query costs SUSHI
// puts on the serving critical path.
package sushi

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"sushi/internal/accel"
	"sushi/internal/core"
	"sushi/internal/latencytable"
	"sushi/internal/sched"
	"sushi/internal/supernet"
	"sushi/internal/workload"
)

// cell parses the leading float of a table cell (strips units).
func cell(b *testing.B, row []string, i int) float64 {
	b.Helper()
	s := strings.TrimSuffix(strings.Fields(row[i])[0], "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell %q: %v", row[i], err)
	}
	return v
}

func BenchmarkFig2ArithmeticIntensity(b *testing.B) {
	for _, w := range []core.Workload{core.ResNet50, core.MobileNetV3} {
		b.Run(string(w), func(b *testing.B) {
			var memBound float64
			for i := 0; i < b.N; i++ {
				r, err := core.Fig2(w)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for _, row := range r.Rows {
					if row[4] == "MEMORY" {
						n++
					}
				}
				memBound = float64(n) / float64(len(r.Rows))
			}
			b.ReportMetric(memBound*100, "mem-bound-%")
		})
	}
}

func BenchmarkFig3CachedSubGraphShape(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 2 {
			b.Fatal("bad grid")
		}
	}
}

func BenchmarkFig10LatencyBreakdown(b *testing.B) {
	for _, w := range []core.Workload{core.ResNet50, core.MobileNetV3} {
		b.Run(string(w), func(b *testing.B) {
			var maxSave float64
			for i := 0; i < b.N; i++ {
				r, err := core.Fig10(w)
				if err != nil {
					b.Fatal(err)
				}
				maxSave = 0
				for _, row := range r.Rows {
					if s := cell(b, row, 9); s > maxSave {
						maxSave = s
					}
				}
			}
			b.ReportMetric(maxSave, "max-save-%")
		})
	}
}

func BenchmarkFig11Roofline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Fig11(core.ResNet50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12DSE(b *testing.B) {
	for _, w := range []core.Workload{core.ResNet50, core.MobileNetV3} {
		b.Run(string(w), func(b *testing.B) {
			var best float64
			for i := 0; i < b.N; i++ {
				r, err := core.Fig12(w)
				if err != nil {
					b.Fatal(err)
				}
				best = 0
				for _, row := range r.Rows {
					if s := cell(b, row, 5); s > best {
						best = s
					}
				}
			}
			b.ReportMetric(best, "best-save-%")
		})
	}
}

func BenchmarkFig13aBoardLatency(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := core.Fig13a()
		if err != nil {
			b.Fatal(err)
		}
		speedup = cell(b, r.Rows[len(r.Rows)-1], 6)
	}
	b.ReportMetric(speedup, "cpu-speedup-x")
}

func BenchmarkFig13bEnergy(b *testing.B) {
	for _, w := range []core.Workload{core.ResNet50, core.MobileNetV3} {
		b.Run(string(w), func(b *testing.B) {
			var maxSave float64
			for i := 0; i < b.N; i++ {
				r, err := core.Fig13b(w)
				if err != nil {
					b.Fatal(err)
				}
				maxSave = 0
				for _, row := range r.Rows {
					if s := cell(b, row, 5); s > maxSave {
						maxSave = s
					}
				}
			}
			b.ReportMetric(maxSave, "max-energy-save-%")
		})
	}
}

func BenchmarkFig14DPUComparison(b *testing.B) {
	var geo float64
	for i := 0; i < b.N; i++ {
		r, err := core.Fig14()
		if err != nil {
			b.Fatal(err)
		}
		logSum := 0.0
		for _, row := range r.Rows {
			logSum += math.Log(cell(b, row, 6))
		}
		geo = math.Exp(logSum / float64(len(r.Rows)))
	}
	b.ReportMetric(geo, "geomean-speedup-x")
}

func BenchmarkFig15SchedFunctional(b *testing.B) {
	for _, p := range []sched.Policy{sched.StrictLatency, sched.StrictAccuracy} {
		b.Run(p.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := core.Fig15(core.ResNet50, p, 150)
				if err != nil {
					b.Fatal(err)
				}
				if !strings.Contains(r.Notes[0], "(0 violations)") {
					b.Fatalf("constraint violations: %s", r.Notes[0])
				}
			}
		})
	}
}

func BenchmarkFig16EndToEnd(b *testing.B) {
	for _, w := range []core.Workload{core.ResNet50, core.MobileNetV3} {
		b.Run(string(w), func(b *testing.B) {
			var save float64
			for i := 0; i < b.N; i++ {
				r, err := core.Fig16(w, 150)
				if err != nil {
					b.Fatal(err)
				}
				noPB := cell(b, r.Rows[0], 1)
				full := cell(b, r.Rows[2], 1)
				save = 100 * (1 - full/noPB)
			}
			b.ReportMetric(save, "latency-save-%")
		})
	}
}

func BenchmarkFig17CacheWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.Fig17(core.MobileNetV3, 150)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 6 {
			b.Fatal("bad Q sweep")
		}
	}
}

func BenchmarkTable1BufferBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Resources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3BufferSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4ReuseMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5TableSize(b *testing.B) {
	var imp float64
	for i := 0; i < b.N; i++ {
		r, err := core.Table5(core.ResNet50, 100)
		if err != nil {
			b.Fatal(err)
		}
		imp = cell(b, r.Rows[len(r.Rows)-1], 3)
	}
	b.ReportMetric(imp, "improvement-%-at-500-cols")
}

func BenchmarkTable6Lookup(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		r, err := core.Table6(core.ResNet50)
		if err != nil {
			b.Fatal(err)
		}
		us = cell(b, r.Rows[len(r.Rows)-1], 1)
	}
	b.ReportMetric(us, "nearest-us-at-max-cols")
}

func BenchmarkHitRatio(b *testing.B) {
	var mob float64
	for i := 0; i < b.N; i++ {
		r, err := core.HitRatioA4(100)
		if err != nil {
			b.Fatal(err)
		}
		mob = cell(b, r.Rows[1], 1)
	}
	b.ReportMetric(mob, "mobv3-hit-ratio")
}

func BenchmarkAblationAveragePredictor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.AblationAvg(core.MobileNetV3, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Cluster serving ----

// BenchmarkClusterServe measures closed-loop throughput of a replica
// cluster as R grows; queries/sec should scale with R since replicas
// serve in parallel. Later scaling PRs track this number.
func BenchmarkClusterServe(b *testing.B) {
	qs, err := workload.Uniform(256,
		workload.Range{Lo: 76, Hi: 80},
		workload.Range{Lo: 2e-3, Hi: 8e-3}, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("replicas=%d", r), func(b *testing.B) {
			dep, err := core.DeployCluster(core.DeployOptions{
				Workload: core.MobileNetV3,
				Policy:   sched.StrictLatency,
			}, core.ClusterOptions{Replicas: r, Router: core.RouterRoundRobin})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := dep.Cluster.ServeAll(ctx, qs); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start).Seconds()
			b.ReportMetric(float64(b.N*len(qs))/elapsed, "queries/sec")
		})
	}
}

// ---- Hot-path microbenchmarks ----

func benchFixture(b *testing.B) (*supernet.SuperNet, []*supernet.SubNet, *latencytable.Table) {
	b.Helper()
	s := supernet.NewOFAResNet50()
	fr, err := s.Frontier()
	if err != nil {
		b.Fatal(err)
	}
	cands, err := latencytable.Candidates(s, fr, latencytable.CandidateOptions{
		Budget: accel.ZCU104().PBBytes, Count: 16, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	tab, err := latencytable.Build(accel.ZCU104(), fr, cands)
	if err != nil {
		b.Fatal(err)
	}
	return s, fr, tab
}

func BenchmarkSimulatorRun(b *testing.B) {
	_, fr, _ := benchFixture(b)
	sim, err := accel.NewSimulator(accel.ZCU104())
	if err != nil {
		b.Fatal(err)
	}
	sn := fr[len(fr)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerDecision(b *testing.B) {
	_, _, tab := benchFixture(b)
	s, err := sched.New(tab, sched.Options{Policy: sched.StrictLatency, Q: 4, StateAware: true})
	if err != nil {
		b.Fatal(err)
	}
	lt := tab.Lookup(3, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(sched.Query{ID: i, MaxLatency: lt}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubGraphIntersect(b *testing.B) {
	_, fr, _ := benchFixture(b)
	a, g := fr[0].Graph, fr[len(fr)-1].Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Intersect(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubGraphIntersectBytes(b *testing.B) {
	_, fr, _ := benchFixture(b)
	a, g := fr[0].Graph, fr[len(fr)-1].Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.IntersectBytes(g)
	}
}

func BenchmarkLatencyTableLookup(b *testing.B) {
	_, _, tab := benchFixture(b)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += tab.Lookup(i%tab.Rows(), i%tab.Cols())
	}
	_ = sink
}

func BenchmarkNearestGraph(b *testing.B) {
	_, fr, tab := benchFixture(b)
	v := fr[2].Vector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.NearestGraph(v)
	}
}

func BenchmarkSubNetInstantiate(b *testing.B) {
	s := supernet.NewOFAResNet50()
	spec := s.UniformSpec(3, 1, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Instantiate(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVectorEncoding(b *testing.B) {
	_, fr, _ := benchFixture(b)
	g := fr[3].Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Vector()
	}
}

func BenchmarkFig9Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.Fig9(core.ResNet50)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) < 2 {
			b.Fatal("degenerate timeline")
		}
	}
}

func BenchmarkOverloadServing(b *testing.B) {
	var sloGap float64
	for i := 0; i < b.N; i++ {
		r, err := core.Overload(core.MobileNetV3, 100)
		if err != nil {
			b.Fatal(err)
		}
		// Gap at 3x overload: load-aware SLO minus static SLO.
		sloGap = cell(b, r.Rows[5], 2) - cell(b, r.Rows[4], 2)
	}
	b.ReportMetric(sloGap, "slo-gap-at-3x-%")
}

// BenchmarkOpenLoopSimulate drives the simq discrete-event engine's hot
// path: a 4-replica cluster under 3x-capacity Poisson overload with
// bounded queues, degrade admission and load-aware budget debiting.
// Reported metrics are the open-loop headline numbers (virtual-time p99
// E2E and goodput); ns/op tracks the engine's wall-clock cost per run —
// the whole point of virtual time is that this stays in the
// milliseconds regardless of the simulated load.
func BenchmarkOpenLoopSimulate(b *testing.B) {
	const (
		queries = 400
		budget  = 8e-3
	)
	arr, err := workload.Poisson{Rate: 4 / budget * 3}.Times(queries, 5)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]TimedQuery, queries)
	for i := range qs {
		qs[i] = TimedQuery{
			Query:   Query{ID: i, MaxLatency: budget},
			Arrival: arr[i],
		}
	}
	var p99, goodput float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// A fresh cluster per iteration: the engine mutates cache state,
		// and fresh deployments keep every iteration identical.
		c, err := NewCluster(Options{Workload: MobileNetV3, Policy: StrictLatency},
			WithReplicas(4), WithRouter(LeastLoaded))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := c.Simulate(qs, SimOptions{
			QueueCap:  8,
			Admission: AdmitDegrade,
			LoadAware: true,
			Drop:      true,
			Router:    LeastLoaded,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Served == 0 {
			b.Fatal("nothing served")
		}
		p99 = res.Summary.P99E2E * 1e3
		goodput = res.Summary.Goodput
	}
	b.ReportMetric(p99, "p99-e2e-ms")
	b.ReportMetric(goodput, "goodput-qps")
	b.ReportMetric(float64(queries), "queries/run")
}

// BenchmarkBatchedSimulate drives SubGraph-stationary micro-batching
// end to end: the same 2.5x-overload Poisson stream through a 2-replica
// cluster, unbatched (B=1) and batched (B=4/B=8 with a half-service
// window). The reported goodput must rise with B at this fixed offered
// load — queries grouped onto one scheduled SubNet pay the weight fetch
// once — while ns/op tracks the flush-event engine's wall-clock cost.
func BenchmarkBatchedSimulate(b *testing.B) {
	const (
		queries = 400
		budget  = 30e-3 // SLO with headroom for a full batch
		svc     = 8e-3  // unbatched slowest-service anchor
	)
	arr, err := workload.Poisson{Rate: 2 / svc * 2.5}.Times(queries, 5)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]TimedQuery, queries)
	for i := range qs {
		qs[i] = TimedQuery{
			Query:   Query{ID: i, MaxLatency: budget},
			Arrival: arr[i],
		}
	}
	goodputs := map[int]float64{}
	for _, batch := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("B=%d", batch), func(b *testing.B) {
			var goodput, p99, avgBatch float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// A fresh cluster per iteration: the engine mutates cache
				// state, and fresh deployments keep iterations identical.
				c, err := NewCluster(Options{Workload: MobileNetV3, Policy: StrictLatency},
					WithReplicas(2), WithRouter(LeastLoaded))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := c.Simulate(qs, SimOptions{
					LoadAware: true,
					Drop:      true,
					Router:    LeastLoaded,
					Batching:  Batching{MaxBatch: batch, Window: svc / 2},
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Served == 0 {
					b.Fatal("nothing served")
				}
				goodput = res.Summary.Goodput
				p99 = res.Summary.P99E2E * 1e3
				avgBatch = res.Summary.AvgBatchSize
				if batch == 1 {
					avgBatch = 1
				}
			}
			goodputs[batch] = goodput
			b.ReportMetric(goodput, "goodput-qps")
			b.ReportMetric(p99, "p99-e2e-ms")
			b.ReportMetric(avgBatch, "avg-batch")
		})
	}
	if g1, g4 := goodputs[1], goodputs[4]; g1 > 0 && g4 > 0 && g4 <= g1 {
		b.Errorf("batching did not pay: B=4 goodput %.1f <= B=1 %.1f at fixed load", g4, g1)
	}
}

// BenchmarkHeteroSimulate drives the heterogeneous-fleet path end to
// end: a mixed ZCU104+AlveoU50 cluster (one latency table per hardware
// group), hardware-aware "fastest" routing against per-replica tables,
// and the cache-management layer re-caching as drifting budgets move
// the served SubNet mix — every switch charged in virtual time. ns/op
// tracks the engine's wall-clock cost per simulated run; the reported
// metrics are the heterogeneity headline numbers.
func BenchmarkHeteroSimulate(b *testing.B) {
	const queries = 400
	arr, err := workload.OnOff{OnRate: 1500, OffRate: 250, MeanOn: 0.05, MeanOff: 0.08}.Times(queries, 7)
	if err != nil {
		b.Fatal(err)
	}
	drift, err := workload.Drifting(queries, workload.Range{}, workload.Range{},
		workload.Range{Lo: 5.5e-3, Hi: 7e-3}, workload.Range{Lo: 1.5e-3, Hi: 2.5e-3}, 7)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := TimedStream(drift, arr)
	if err != nil {
		b.Fatal(err)
	}
	var p99 float64
	var recaches int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// A fresh fleet per iteration: re-caching mutates cache state, so
		// fresh deployments keep every iteration identical.
		c, err := NewCluster(Options{Workload: MobileNetV3, Policy: StrictLatency},
			WithHardware(ZCU104(), ZCU104(), AlveoU50(), AlveoU50()),
			WithRouter(Fastest),
			WithRecache(RecachePolicy{Window: 8, MinGain: 0.01, Cooldown: 8}))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := c.Simulate(qs, SimOptions{LoadAware: true, Drop: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.Served == 0 {
			b.Fatal("nothing served")
		}
		p99 = res.Summary.P99E2E * 1e3
		recaches = res.Recaches
	}
	b.ReportMetric(p99, "p99-e2e-ms")
	b.ReportMetric(float64(recaches), "recaches/run")
	b.ReportMetric(float64(queries), "queries/run")
}

// BenchmarkMultiTenantSimulate drives the shared two-model fleet with
// an anti-correlated diurnal mix through the virtual-time engine — the
// consolidation configuration of the multitenant experiment. Fresh
// deployments per iteration keep runs identical (partitioning and
// cache updates mutate accelerator state).
func BenchmarkMultiTenantSimulate(b *testing.B) {
	const queries = 400
	budgets := map[string]float64{"resnet50": 80e-3, "mobilenetv3": 9e-3}
	mix := Mix{}
	for i, model := range []string{"resnet50", "mobilenetv3"} {
		mix.Components = append(mix.Components, MixComponent{
			Model: model,
			Process: Diurnal{
				BaseRate:  1.7 * (2 / (budgets[model] / 1.5)) / 2,
				Amplitude: 1,
				Period:    1.2,
				Phase:     float64(i) * math.Pi,
			},
		})
	}
	times, labels, err := mix.Labeled(queries, 11)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]TimedQuery, queries)
	for i := range qs {
		qs[i] = TimedQuery{
			Query:   Query{ID: i, Model: labels[i], MaxLatency: budgets[labels[i]]},
			Arrival: times[i],
		}
	}
	var goodput float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := NewCluster(Options{Policy: StrictLatency},
			WithModels(ResNet50, MobileNetV3),
			WithReplicas(4),
			WithPartition(PartitionPolicy{Mode: PartitionTraffic}))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := c.Simulate(qs, SimOptions{
			QueueCap: 3, Admission: AdmitReject, LoadAware: true, Drop: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.Served == 0 {
			b.Fatal("nothing served")
		}
		goodput = res.Summary.Goodput
	}
	b.ReportMetric(goodput, "goodput-qps")
	b.ReportMetric(float64(queries), "queries/run")
}

// BenchmarkEngineHot is the engine-only microbenchmark: one warm
// 4-replica deployment reused across iterations (no cluster build, no
// fresh tables — the engine's steady state is the subject), a
// 2x-capacity Poisson stream with bounded queues, degrade admission and
// load-aware debiting. Run with -benchmem: allocs/op divided by
// queries/run is the steady-state allocations per simulated query,
// which the zero-alloc hot path keeps near zero. queries/sec is the
// headline raw simulation throughput.
func BenchmarkEngineHot(b *testing.B) {
	const (
		queries = 2000
		budget  = 8e-3
	)
	arr, err := workload.Poisson{Rate: 4 / budget * 2}.Times(queries, 3)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]TimedQuery, queries)
	for i := range qs {
		qs[i] = TimedQuery{
			Query:   Query{ID: i, MaxLatency: budget},
			Arrival: arr[i],
		}
	}
	c, err := NewCluster(Options{Workload: MobileNetV3, Policy: StrictLatency},
		WithReplicas(4), WithRouter(LeastLoaded))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Simulate(qs, SimOptions{
			QueueCap:  8,
			Admission: AdmitDegrade,
			LoadAware: true,
			Drop:      true,
			Router:    LeastLoaded,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Served == 0 {
			b.Fatal("nothing served")
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(queries)*float64(b.N)/secs, "queries/sec")
	}
	b.ReportMetric(float64(queries), "queries/run")
}

// BenchmarkElasticSimulate drives the autoscaled 2..8 fleet with a
// diurnal stream through the virtual-time engine — the elastic half of
// the elastic experiment, with replica lifecycle events (boot fills,
// drains, retirements) on the critical path. Fresh deployments per
// iteration keep runs identical.
func BenchmarkElasticSimulate(b *testing.B) {
	const queries = 500
	proc := Diurnal{BaseRate: 450, Amplitude: 1, Period: 0.55}
	times, err := proc.Times(queries, 7)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]TimedQuery, queries)
	for i := range qs {
		qs[i] = TimedQuery{
			Query:   Query{ID: i, MaxLatency: 9e-3},
			Arrival: times[i],
		}
	}
	var scaleUps int
	var replicaSeconds float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := NewCluster(Options{Workload: MobileNetV3, Policy: StrictLatency},
			WithRouter(LeastLoaded),
			WithAutoscale(AutoscaleOptions{
				Min: 2, Max: 8, Policy: "utilization", Interval: 10e-3}))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := c.Simulate(qs, SimOptions{
			QueueCap: 4, Admission: AdmitReject, LoadAware: true, Drop: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.Served == 0 {
			b.Fatal("nothing served")
		}
		if res.ScaleUps == 0 {
			b.Fatal("fleet never scaled")
		}
		scaleUps = res.ScaleUps
		replicaSeconds = res.ReplicaSeconds
	}
	b.ReportMetric(float64(scaleUps), "scale-ups/run")
	b.ReportMetric(replicaSeconds, "replica-s/run")
	b.ReportMetric(float64(queries), "queries/run")
}
