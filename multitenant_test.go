package sushi

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sushi/internal/core"
	"sushi/internal/serving"
)

// testMultiCluster builds the canonical public multi-tenant fleet.
func testMultiCluster(t *testing.T, opts ...ClusterOption) *Cluster {
	t.Helper()
	base := []ClusterOption{
		WithModels(ResNet50, MobileNetV3),
		WithReplicas(4),
		WithPartition(PartitionPolicy{Mode: PartitionTraffic}),
	}
	c, err := NewCluster(Options{Policy: StrictLatency}, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// modelBudget finds a latency budget keeping the model's frontier
// feasible.
func modelBudget(t *testing.T, c *Cluster, model string) float64 {
	t.Helper()
	var fr []core.SubNetView
	for _, md := range c.d.Models {
		if md.Model == model {
			fr = core.FrontierView(md.Frontier)
		}
	}
	if len(fr) == 0 {
		t.Fatalf("model %q not hosted or has an empty frontier", model)
	}
	// A generous budget rather than one derived from the frontier
	// (sorted smallest-first).
	return 0.5 // 500ms: every SubNet of either family fits comfortably
}

// TestMultiTenantPublicServe: Query.Model routes to the right family
// end to end, empty model resolves to the default, unknown models are
// typed errors, and Stats carries per-model slices.
func TestMultiTenantPublicServe(t *testing.T) {
	c := testMultiCluster(t)
	if got := c.d.Cluster.Models(); len(got) != 2 || got[0] != "resnet50" || got[1] != "mobilenetv3" {
		t.Fatalf("Models() = %v", got)
	}
	ctx := context.Background()
	budget := modelBudget(t, c, "mobilenetv3")
	rs := map[string]Served{}
	for _, model := range []string{"", "resnet50", "mobilenetv3"} {
		res, err := c.Serve(ctx, Query{Model: model, MaxLatency: budget})
		if err != nil {
			t.Fatalf("model %q: %v", model, err)
		}
		rs[model] = res
	}
	if rs[""].Query.Model != "resnet50" {
		t.Errorf("empty model normalized to %q, want resnet50 (the default tenant)", rs[""].Query.Model)
	}
	// The two families have disjoint accuracy scales in this repo's
	// calibration, so routing to the wrong tenant would be visible.
	if rs["resnet50"].Accuracy == rs["mobilenetv3"].Accuracy {
		t.Errorf("both models served identical accuracy %.2f — model routing suspicious", rs["resnet50"].Accuracy)
	}
	_, err := c.Serve(ctx, Query{Model: "alexnet", MaxLatency: budget})
	var unknown *serving.UnknownModelError
	if !errors.As(err, &unknown) {
		t.Fatalf("unknown model: got %v, want *UnknownModelError", err)
	}
	sum := c.Stats()
	if len(sum.PerModel) != 2 {
		t.Fatalf("Stats().PerModel has %d slices, want 2", len(sum.PerModel))
	}
	for _, ms := range sum.PerModel {
		if ms.Queries == 0 {
			t.Errorf("model %s has no queries in Stats()", ms.Model)
		}
	}
	// Replicas() exposes per-model slices too.
	for _, rv := range c.Replicas() {
		if len(rv.Models) != 2 {
			t.Fatalf("replica %d view has %d model slices", rv.ID, len(rv.Models))
		}
	}
}

// TestMultiTenantSimulatePublicAPI: Cluster.Simulate accepts a mixed
// stream built from the public Mix combinator and reports per-model
// summaries.
func TestMultiTenantSimulatePublicAPI(t *testing.T) {
	c := testMultiCluster(t)
	mix := Mix{Components: []MixComponent{
		{Model: "resnet50", Process: Poisson{Rate: 60}},
		{Model: "mobilenetv3", Process: Diurnal{BaseRate: 400, Amplitude: 0.8, Period: 0.5}},
	}}
	times, labels, err := mix.Labeled(160, 7)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]TimedQuery, len(times))
	for i := range qs {
		qs[i] = TimedQuery{
			Query:   Query{ID: i, Model: labels[i], MaxLatency: modelBudget(t, c, labels[i])},
			Arrival: times[i],
		}
	}
	res, err := c.Simulate(qs, SimOptions{QueueCap: 4, Admission: AdmitDegrade, LoadAware: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Served == 0 {
		t.Fatal("nothing served")
	}
	if len(res.Summary.PerModel) != 2 {
		t.Fatalf("simulate summary has %d per-model slices, want 2", len(res.Summary.PerModel))
	}
}

// TestRouterBatchingHeteroRace is the router x batching interplay
// test the micro-batching PR raced only for round-robin: the fastest
// and affinity routers dispatch lock-free against published cache
// state while the live batch former groups concurrent same-model
// queries on a HETEROGENEOUS fleet. Run under -race in CI.
func TestRouterBatchingHeteroRace(t *testing.T) {
	for _, kind := range []RouterKind{Fastest, Affinity} {
		t.Run(string(kind), func(t *testing.T) {
			c, err := NewCluster(Options{Policy: StrictLatency},
				WithModels(ResNet50, MobileNetV3),
				WithHardware(ZCU104(), ZCU104(), AlveoU50(), AlveoU50()),
				WithRouter(kind),
				WithRecache(RecachePolicy{Window: 8, Cooldown: 8}),
				WithBatching(4, 3*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			const workers = 48
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					model := "resnet50"
					if i%2 == 1 {
						model = "mobilenetv3"
					}
					res, err := c.Serve(ctx, Query{ID: i, Model: model, MaxLatency: 0.5})
					if err != nil {
						errs <- err
						return
					}
					if res.Query.Model != model {
						errs <- errors.New("served outcome lost its model id")
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			sum := c.Stats()
			if sum.Queries != workers {
				t.Fatalf("served %d of %d queries", sum.Queries, workers)
			}
			if len(sum.PerModel) != 2 {
				t.Fatalf("per-model slices missing under concurrency: %d", len(sum.PerModel))
			}
			for _, ms := range sum.PerModel {
				if ms.Queries != workers/2 {
					t.Errorf("model %s served %d, want %d", ms.Model, ms.Queries, workers/2)
				}
			}
		})
	}
}

// TestSingleModelBatchingRaceRouters races the same router x batching
// interplay WITHOUT the model axis (the PR-4 configuration), so the
// single-model live-batcher path stays covered for fastest/affinity
// too.
func TestSingleModelBatchingRaceRouters(t *testing.T) {
	for _, kind := range []RouterKind{Fastest, Affinity} {
		t.Run(string(kind), func(t *testing.T) {
			c, err := NewCluster(Options{Workload: MobileNetV3, Policy: StrictLatency},
				WithHardware(ZCU104(), ZCU104(), AlveoU50()),
				WithRouter(kind),
				WithBatching(4, 2*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			const workers = 32
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if _, err := c.Serve(ctx, Query{ID: i, MaxLatency: 0.5}); err != nil {
						errs <- err
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if got := c.Stats().Queries; got != workers {
				t.Fatalf("served %d of %d", got, workers)
			}
		})
	}
}
