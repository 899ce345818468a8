// Autonomous-vehicle scenario (§1): the on-board perception stack
// alternates between sparse suburban terrain (relaxed deadlines, cheap
// frames) and dense urban terrain (tight deadlines every frame). A single
// static model either misses urban deadlines or wastes suburban accuracy;
// SUSHI navigates the trade-off per frame and keeps the hot SubGraph
// resident across the phase.
package main

import (
	"context"
	"fmt"
	"log"

	"sushi"
)

func main() {
	sys, err := sushi.NewCluster(sushi.Options{
		Workload: sushi.ResNet50,
		Policy:   sushi.StrictLatency, // deadlines are hard in an AV
		Q:        4,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Learn the deployment's latency scale from the frontier extremes:
	// an impossible budget falls back to the fastest SubNet, a generous
	// one serves the most accurate.
	fast, err := sys.Serve(ctx, sushi.Query{MinAccuracy: 0, MaxLatency: 1e-9})
	if err != nil {
		log.Fatal(err)
	}
	slow, err := sys.Serve(ctx, sushi.Query{MinAccuracy: 0, MaxLatency: 1})
	if err != nil {
		log.Fatal(err)
	}

	trace, err := sushi.PhasedWorkload(240, []sushi.Phase{
		{
			Name:    "suburban",
			Queries: 60,
			Acc:     sushi.Range{Lo: 0, Hi: 0}, // no accuracy floor
			Lat:     sushi.Range{Lo: slow.Latency * 1.05, Hi: slow.Latency * 1.3},
		},
		{
			Name:    "urban",
			Queries: 60,
			Acc:     sushi.Range{Lo: 0, Hi: 0},
			Lat:     sushi.Range{Lo: fast.Latency * 1.05, Hi: fast.Latency * 1.6},
		},
	}, 7)
	if err != nil {
		log.Fatal(err)
	}

	results, err := sys.ServeAll(ctx, trace)
	if err != nil {
		log.Fatal(err)
	}

	// Per-phase report: which SubNets served each terrain, and deadline
	// attainment.
	report := func(name string, lo, hi int) {
		byNet := map[string]int{}
		met := 0
		var lat float64
		for _, r := range results[lo:hi] {
			byNet[r.SubNet]++
			if r.LatencyMet {
				met++
			}
			lat += r.Latency
		}
		n := hi - lo
		fmt.Printf("%-9s avg %.2f ms, deadlines met %d/%d, SubNet mix %v\n",
			name, lat/float64(n)*1e3, met, n, byNet)
	}
	fmt.Println("phase summaries (first cycle):")
	report("suburban", 0, 60)
	report("urban", 60, 120)

	sum := sushi.Summarize(results)
	fmt.Printf("\noverall: %s\n", sum)
	fmt.Printf("cache swaps tracked the terrain changes: %d swaps\n", sum.CacheSwaps)
}
