// Command multitenant demonstrates multi-tenant SubGraph serving: one
// fleet co-hosting TWO weight-shared model families (ResNet50 and
// MobileNetV3) behind shared Persistent Buffers, against the
// traditional alternative of statically partitioning the hardware per
// model.
//
// The workload is the consolidation argument in miniature: two
// anti-correlated diurnal streams (phases π apart — ResNet50 peaks
// exactly while MobileNetV3 troughs, then they trade places) are
// superposed by sushi.Mix into one labelled arrival stream. A static
// 2+2 split is overloaded at every peak; the shared 4-replica fleet
// sees near-constant combined load and lends each model the other's
// idle capacity. Meanwhile the traffic-weighted partitioner re-splits
// each replica's Persistent Buffer as the mix swings, so the bursting
// model also holds the larger SubGraph cache. (internal/core's
// TestMultiTenantExperiment pins the shared fleet beating the static
// 2+2 split on goodput at identical hardware and seeds.)
package main

import (
	"fmt"
	"log"
	"math"

	"sushi"
)

func main() {
	const (
		queries = 400
		seed    = 11
		// Per-model latency budgets (seconds), generous enough that SLO
		// misses come from queueing, not service.
		rn50Budget = 80e-3
		mbv3Budget = 9e-3
	)
	budgets := map[string]float64{"resnet50": rn50Budget, "mobilenetv3": mbv3Budget}

	// Anti-phase diurnal arrival streams: each model peaks at ~1.7x the
	// capacity of HALF the fleet, calibrated in its own service units.
	mix := sushi.Mix{}
	phase := 0.0
	meanRate := 0.0
	for _, model := range []string{"resnet50", "mobilenetv3"} {
		base := 1.7 * (2 / (budgets[model] / 1.5)) / 2
		meanRate += base
		mix.Components = append(mix.Components, sushi.MixComponent{
			Model:   model,
			Process: sushi.Diurnal{BaseRate: base, Amplitude: 1, Period: 1.2, Phase: phase},
		})
		phase += math.Pi
	}
	times, labels, err := mix.Labeled(queries, seed)
	if err != nil {
		log.Fatal(err)
	}
	stream := make([]sushi.TimedQuery, queries)
	for i := range stream {
		stream[i] = sushi.TimedQuery{
			Query:   sushi.Query{ID: i, Model: labels[i], MaxLatency: budgets[labels[i]]},
			Arrival: times[i],
		}
	}
	fmt.Printf("mixed stream: %d queries over %.2fs virtual (%s)\n\n",
		queries, times[queries-1], mix.Name())

	// One shared fleet: both models on every replica, one scheduler and
	// latency-table family per model, PB shares re-split by traffic.
	cluster, err := sushi.NewCluster(sushi.Options{Policy: sushi.StrictLatency},
		sushi.WithModels(sushi.ResNet50, sushi.MobileNetV3),
		sushi.WithReplicas(4),
		sushi.WithPartition(sushi.PartitionPolicy{Mode: sushi.PartitionTraffic}),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := cluster.Simulate(stream, sushi.SimOptions{
		QueueCap:  3,
		Admission: sushi.AdmitReject,
		LoadAware: true,
		Drop:      true,
	})
	if err != nil {
		log.Fatal(err)
	}

	sum := res.Summary
	fmt.Printf("shared 4-replica fleet: served %d/%d, goodput %.1f qps, SLO %.1f%%, p99 e2e %.2f ms\n",
		res.Served, res.Queries, sum.Goodput, sum.E2ESLO*100, sum.P99E2E*1e3)
	for _, ms := range sum.PerModel {
		fmt.Printf("  %-12s %4d queries  SLO %5.1f%%  p99 e2e %7.2f ms  avg acc %.2f%%\n",
			ms.Model, ms.Queries, ms.E2ESLO*100, ms.P99E2E*1e3, ms.AvgAccuracy)
	}

	fmt.Println("\nper-replica tenants (PB shares follow the traffic):")
	for _, rv := range cluster.Replicas() {
		fmt.Printf("  replica %d (%s):", rv.ID, rv.Accel.Name)
		for _, mv := range rv.Models {
			fmt.Printf("  %s col=%d share=%dKB", mv.Model, mv.CacheColumn, mv.PBShareKB)
		}
		fmt.Println()
	}
}
