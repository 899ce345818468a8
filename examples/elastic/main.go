// Command elastic demonstrates an autoscaled SUSHI fleet: the
// deployment builds 8 replicas but only 2 admit queries at boot; as a
// diurnal load swings, the target-utilization policy boots standby
// replicas into the peak — each paying its cold Persistent Buffer fill
// in virtual time, the paper's re-cache cost applied to a scale-up —
// and drains them back out through the trough.
//
// The control run serves the same stream on a fixed 6-replica fleet,
// showing the trade the autoscaler makes: far fewer replica-seconds of
// admitting capacity for near-equal SLO attainment, because the elastic
// fleet is bigger than 6 exactly when the load needs it and smaller
// the rest of the time. (On a calibrated stream whose peak outgrows
// the fixed fleet, internal/core's TestElasticExperiment pins the
// elastic fleet winning on both cost and SLO.)
package main

import (
	"fmt"
	"log"

	"sushi"
)

func main() {
	const (
		queries = 500
		seed    = 7
		budget  = 9e-3 // seconds; generous over MobileNetV3 service latency
	)

	// One diurnal stream, two full day/night cycles: the mean offers
	// ~4x one replica's capacity, the peak ~8x.
	proc := sushi.Diurnal{BaseRate: 450, Amplitude: 1, Period: 0.55}
	times, err := proc.Times(queries, seed)
	if err != nil {
		log.Fatal(err)
	}
	stream := make([]sushi.TimedQuery, queries)
	for i := range stream {
		stream[i] = sushi.TimedQuery{
			Query:   sushi.Query{ID: i, MaxLatency: budget},
			Arrival: times[i],
		}
	}
	fmt.Printf("diurnal stream: %d queries over %.2fs virtual\n\n", queries, times[queries-1])

	// An elastic fleet: 8 replicas built (cache columns assigned up
	// front), 2..7 starting standby, scaled by the target-utilization
	// policy every 10 virtual milliseconds.
	cluster, err := sushi.NewCluster(
		sushi.Options{Workload: sushi.MobileNetV3, Policy: sushi.StrictLatency},
		sushi.WithRouter(sushi.LeastLoaded),
		sushi.WithAutoscale(sushi.AutoscaleOptions{
			Min: 2, Max: 8, Policy: "utilization", Interval: 10e-3,
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	opts := sushi.SimOptions{
		QueueCap:  4,
		Admission: sushi.AdmitReject,
		LoadAware: true,
		Drop:      true,
	}
	res, err := cluster.Simulate(stream, opts)
	if err != nil {
		log.Fatal(err)
	}
	sum := res.Summary
	fmt.Printf("elastic 2..8 fleet: served %d/%d, SLO %.1f%%, p99 e2e %.2f ms\n",
		res.Served, res.Queries, sum.E2ESLO*100, sum.P99E2E*1e3)
	fmt.Printf("  %d scale-ups, %d scale-downs, %.2f replica-seconds of admitting capacity\n",
		res.ScaleUps, res.ScaleDowns, res.ReplicaSeconds)
	for _, rv := range cluster.Replicas() {
		fmt.Printf("  replica %d: %-8s %4d queries routed\n",
			rv.ID, rv.State, res.ReplicaQueries[rv.ID])
	}

	// Control run on a FRESH deployment: the same stream against the
	// fleet pinned at 6 replicas (Min == Max == 6 disables scaling).
	pinned, err := sushi.NewCluster(
		sushi.Options{Workload: sushi.MobileNetV3, Policy: sushi.StrictLatency},
		sushi.WithRouter(sushi.LeastLoaded),
		sushi.WithReplicas(6),
	)
	if err != nil {
		log.Fatal(err)
	}
	fixed, err := pinned.Simulate(stream, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfixed 6-replica fleet: served %d/%d, SLO %.1f%%, p99 e2e %.2f ms, %.2f replica-seconds\n",
		fixed.Served, fixed.Queries, fixed.Summary.E2ESLO*100,
		fixed.Summary.P99E2E*1e3, fixed.ReplicaSeconds)
}
