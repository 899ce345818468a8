// ICU triage scenario (§1): a bed-side stability-score service sees calm
// stretches punctuated by admission bursts. During a burst the latency
// budget collapses (many patients triaged at once); prediction quality is
// always a hard floor. The example contrasts the full SUSHI stack with
// the No-PB baseline on the identical burst trace — the accuracy stream
// is the same, the latency and SLO attainment are not.
package main

import (
	"context"
	"fmt"
	"log"

	"sushi"
)

func main() {
	ctx := context.Background()
	mkSystem := func(mode sushi.Mode) *sushi.Cluster {
		sys, err := sushi.NewCluster(sushi.Options{
			Workload: sushi.MobileNetV3, // edge-class model at the bedside
			Policy:   sushi.StrictAccuracy,
			Mode:     mode,
			Q:        4,
		})
		if err != nil {
			log.Fatal(err)
		}
		return sys
	}

	probe := mkSystem(sushi.Full)
	fr := probe.Frontier()
	mid, err := probe.Serve(ctx, sushi.Query{MinAccuracy: fr[3].Accuracy, MaxLatency: 1})
	if err != nil {
		log.Fatal(err)
	}

	// Accuracy floor between the mid and top SubNets; baseline latency
	// budget comfortable, bursts cut it to 40%.
	trace, err := sushi.BurstyWorkload(300,
		sushi.Range{Lo: fr[2].Accuracy, Hi: fr[5].Accuracy},
		sushi.Range{Lo: mid.Latency * 1.2, Hi: mid.Latency * 2.0},
		0.08, 0.4, 8, 13)
	if err != nil {
		log.Fatal(err)
	}

	for _, mode := range []sushi.Mode{sushi.Full, sushi.NoPB} {
		sys := mkSystem(mode)
		rs, err := sys.ServeAll(ctx, trace)
		if err != nil {
			log.Fatal(err)
		}
		sum := sushi.Summarize(rs)
		fmt.Printf("%-16s avg %.3f ms | p99 %.3f ms | latency SLO %.1f%% | accuracy floor met %.1f%%\n",
			mode, sum.AvgLatency*1e3, sum.P99Latency*1e3,
			sum.LatencySLO*100, sum.AccuracySLO*100)
	}
	fmt.Println("\nthe accuracy stream is identical (STRICT_ACCURACY); the PB buys latency headroom during bursts")
}
