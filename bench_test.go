// Hot-path microbenchmarks for the per-query costs SUSHI puts on the
// serving critical path, plus closed-loop cluster throughput and the
// engine's steady state. The paper's tables and figures are scored by
// the fidelity experiment (`sushi-bench fidelity`), and end-to-end
// performance by the benchmark module BENCHMARK.json declares.
package sushi

import (
	"context"
	"fmt"
	"testing"
	"time"

	"sushi/internal/accel"
	"sushi/internal/core"
	"sushi/internal/latencytable"
	"sushi/internal/sched"
	"sushi/internal/supernet"
	"sushi/internal/workload"
)

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
