// Edge-battery scenario (§1): a battery-powered edge device starts the
// day demanding full accuracy and gradually relaxes it as the battery
// drains, while the latency budget loosens (the user tolerates slower,
// cheaper answers to stretch runtime). Off-chip data movement dominates
// accelerator energy (§5.4.3), so the metric to watch is the off-chip
// energy per query — SGS caching cuts exactly that.
package main

import (
	"context"
	"fmt"
	"log"

	"sushi"
)

func main() {
	// MinEnergy serves the cheapest SubNet that satisfies BOTH the
	// accuracy floor and the latency budget — the natural policy for a
	// battery-constrained device.
	sys, err := sushi.NewCluster(sushi.Options{
		Workload: sushi.MobileNetV3,
		Policy:   sushi.MinEnergy,
		Q:        4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fr := sys.Frontier()
	top := fr[len(fr)-1].Accuracy
	low := fr[0].Accuracy

	trace, err := sushi.DriftingWorkload(200,
		sushi.Range{Lo: top - 0.3, Hi: top}, // morning: peak accuracy
		sushi.Range{Lo: low, Hi: low + 0.3}, // evening: whatever fits
		sushi.Range{Lo: 2e-3, Hi: 3e-3},     // morning: snappy
		sushi.Range{Lo: 6e-3, Hi: 9e-3},     // evening: relaxed
		29)
	if err != nil {
		log.Fatal(err)
	}
	rs, err := sys.ServeAll(context.Background(), trace)
	if err != nil {
		log.Fatal(err)
	}

	// Report the day in quarters: served accuracy and energy both fall.
	quarter := len(rs) / 4
	fmt.Println("battery day in quarters:")
	for qi := 0; qi < 4; qi++ {
		part := rs[qi*quarter : (qi+1)*quarter]
		sum := sushi.Summarize(part)
		fmt.Printf("  Q%d: acc %.2f%%, lat %.3f ms, off-chip energy %.3f mJ (hit %.2f)\n",
			qi+1, sum.AvgAccuracy, sum.AvgLatency*1e3,
			sum.OffChipEnergyJ*1e3/float64(len(part)), sum.AvgHitRatio)
	}
	total := sushi.Summarize(rs)
	fmt.Printf("\nwhole day: %s\n", total)
	fmt.Printf("total off-chip energy %.2f mJ across %d queries\n",
		total.OffChipEnergyJ*1e3, total.Queries)
}
