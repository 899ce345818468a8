// Quickstart: build a SUSHI deployment on one accelerator (a cluster of
// one replica), look at its Pareto frontier, and serve a handful of
// queries with different constraints.
package main

import (
	"context"
	"fmt"
	"log"

	"sushi"
)

func main() {
	sys, err := sushi.NewCluster(sushi.Options{
		Workload: sushi.MobileNetV3,
		Policy:   sushi.StrictLatency,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("servable SubNets (the weight-shared Pareto frontier):")
	for _, sn := range sys.Frontier() {
		fmt.Printf("  %s: %.2f%% top-1, %.2f MB weights, %.2f GFLOPs\n",
			sn.Name, sn.Accuracy, sn.WeightMB, sn.GFLOPs)
	}

	queries := []sushi.Query{
		{ID: 0, MinAccuracy: 76, MaxLatency: 8e-3}, // generous budget
		{ID: 1, MinAccuracy: 76, MaxLatency: 3e-3}, // tight budget
		{ID: 2, MinAccuracy: 79, MaxLatency: 8e-3}, // high accuracy
	}
	fmt.Println("\nserving:")
	for _, q := range queries {
		r, err := sys.Serve(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  q%d (A>=%.0f%%, L<=%.0fms) -> SubNet %s: %.2f%% in %.3f ms (PB hit %.2f)\n",
			q.ID, q.MinAccuracy, q.MaxLatency*1e3,
			r.SubNet, r.Accuracy, r.Latency*1e3, r.HitRatio)
	}

	st := sys.Replicas()[0].Cache
	fmt.Printf("\nPersistent Buffer: %s (%.2f MB cached)\n",
		st.Name, float64(st.Bytes)/(1<<20))
}
