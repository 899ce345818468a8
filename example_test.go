package sushi_test

import (
	"context"
	"fmt"
	"log"

	"sushi"
)

// Example demonstrates the minimal serving loop: build a deployment on
// one accelerator, submit a constrained query, read the outcome.
func Example() {
	sys, err := sushi.NewCluster(sushi.Options{
		Workload: sushi.MobileNetV3,
		Policy:   sushi.StrictAccuracy,
	})
	if err != nil {
		log.Fatal(err)
	}
	r, err := sys.Serve(context.Background(), sushi.Query{ID: 0, MinAccuracy: 78, MaxLatency: 10e-3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served SubNet %s at %.2f%% top-1\n", r.SubNet, r.Accuracy)
	// Output:
	// served SubNet C at 78.59% top-1
}

// ExampleCluster_Frontier lists the servable SubNets of a deployment.
func ExampleCluster_Frontier() {
	sys, err := sushi.NewCluster(sushi.Options{Workload: sushi.MobileNetV3})
	if err != nil {
		log.Fatal(err)
	}
	fr := sys.Frontier()
	fmt.Printf("%d SubNets from %s (%.2f%%) to %s (%.2f%%)\n",
		len(fr), fr[0].Name, fr[0].Accuracy, fr[len(fr)-1].Name, fr[len(fr)-1].Accuracy)
	// Output:
	// 7 SubNets from A (75.90%) to G (80.10%)
}

// ExampleCluster_ServeAll serves a generated workload on one accelerator
// and summarizes it.
func ExampleCluster_ServeAll() {
	sys, err := sushi.NewCluster(sushi.Options{
		Workload: sushi.MobileNetV3,
		Policy:   sushi.StrictLatency,
	})
	if err != nil {
		log.Fatal(err)
	}
	qs, err := sushi.UniformWorkload(20,
		sushi.Range{Lo: 76, Hi: 80},     // accuracy floors
		sushi.Range{Lo: 2e-3, Hi: 8e-3}, // latency budgets
		42)
	if err != nil {
		log.Fatal(err)
	}
	rs, err := sys.ServeAll(context.Background(), qs)
	if err != nil {
		log.Fatal(err)
	}
	sum := sushi.Summarize(rs)
	fmt.Printf("served %d queries, latency SLO attainment %.0f%%\n",
		sum.Queries, sum.LatencySLO*100)
	// Output:
	// served 20 queries, latency SLO attainment 100%
}

// ExampleNewCluster serves a workload concurrently across four replica
// accelerators with SubGraph-affinity routing.
func ExampleNewCluster() {
	c, err := sushi.NewCluster(sushi.Options{
		Workload: sushi.MobileNetV3,
		Policy:   sushi.StrictLatency,
	}, sushi.WithReplicas(4), sushi.WithRouter(sushi.Affinity))
	if err != nil {
		log.Fatal(err)
	}
	qs, err := sushi.UniformWorkload(40,
		sushi.Range{Lo: 76, Hi: 80},
		sushi.Range{Lo: 2e-3, Hi: 8e-3},
		42)
	if err != nil {
		log.Fatal(err)
	}
	rs, err := c.ServeAll(context.Background(), qs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d replicas served %d queries via %s routing\n",
		c.Size(), len(rs), c.Router())
	// Output:
	// 4 replicas served 40 queries via affinity routing
}
