// Command sushi-serve runs a trace-driven serving simulation: it
// generates (or accepts) an annotated query stream, serves it through a
// SUSHI cluster (replicas serve concurrently; one replica reproduces the
// single-accelerator setup), and prints per-query outcomes plus the
// aggregate and per-replica summaries.
//
// Usage:
//
//	sushi-serve [-w workload] [-mode full|unaware|nopb] [-policy acc|lat]
//	            [-n queries] [-q period] [-trace kind] [-seed n]
//	            [-replicas n] [-router kind] [-v]
//
// Trace kinds: uniform (default), phased, bursty, drifting.
// Router kinds: round-robin (default), least-loaded, affinity, random.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"sushi"
)

func main() {
	var (
		wl        = flag.String("w", "resnet50", "workload: resnet50 or mobilenetv3")
		mode      = flag.String("mode", "full", "system variant: full, unaware, nopb")
		policy    = flag.String("policy", "acc", "policy: acc (strict accuracy), lat (strict latency), energy (min energy under both)")
		n         = flag.Int("n", 100, "number of queries")
		q         = flag.Int("q", 4, "cache-update period Q")
		traceKind = flag.String("trace", "uniform", "trace kind: uniform, phased, bursty, drifting")
		seed      = flag.Int64("seed", 1, "workload seed")
		replicas  = flag.Int("replicas", 1, "replica deployments behind the dispatcher")
		router    = flag.String("router", "round-robin", "dispatch policy: round-robin, least-loaded, affinity, random")
		verb      = flag.Bool("v", false, "print every served query")
	)
	flag.Parse()

	opt := sushi.Options{Workload: sushi.Workload(*wl), Q: *q}
	switch *mode {
	case "full":
		opt.Mode = sushi.Full
	case "unaware":
		opt.Mode = sushi.StateUnaware
		opt.Candidates = 16
	case "nopb":
		opt.Mode = sushi.NoPB
	default:
		fatal("unknown mode %q", *mode)
	}
	switch *policy {
	case "acc":
		opt.Policy = sushi.StrictAccuracy
	case "lat":
		opt.Policy = sushi.StrictLatency
	case "energy":
		opt.Policy = sushi.MinEnergy
	default:
		fatal("unknown policy %q", *policy)
	}

	ctx := context.Background()
	cl, err := sushi.NewCluster(opt,
		sushi.WithReplicas(*replicas),
		sushi.WithRouter(sushi.RouterKind(*router)),
		sushi.WithRouterSeed(*seed))
	if err != nil {
		fatal("%v", err)
	}
	// Two probe queries learn the frontier's latency range so generated
	// constraints are meaningfully satisfiable. They pin the per-query
	// StrictAccuracy override so the range spans fastest→slowest SubNet
	// regardless of the session policy (under plain StrictLatency both
	// probes would serve the same most-accurate SubNet and the range
	// would collapse). They run through the cluster itself (rebuilding a
	// separate system would re-derive the whole latency table); their
	// slight cache-state nudge matches the single-system behaviour of
	// earlier versions.
	fr := cl.Frontier()
	accLo, accHi := fr[0].Accuracy, fr[len(fr)-1].Accuracy
	strictAcc := sushi.StrictAccuracy
	probeLo, err := cl.Serve(ctx, sushi.Query{MinAccuracy: 0, MaxLatency: 1, Policy: &strictAcc})
	if err != nil {
		fatal("%v", err)
	}
	probeHi, err := cl.Serve(ctx, sushi.Query{MinAccuracy: accHi, MaxLatency: 1, Policy: &strictAcc})
	if err != nil {
		fatal("%v", err)
	}
	latRange := sushi.Range{Lo: probeLo.Latency * 0.9, Hi: probeHi.Latency * 1.1}
	accRange := sushi.Range{Lo: accLo - 0.2, Hi: accHi}

	var qs []sushi.Query
	switch *traceKind {
	case "uniform":
		qs, err = sushi.UniformWorkload(*n, accRange, latRange, *seed)
	case "phased":
		qs, err = sushi.PhasedWorkload(*n, []sushi.Phase{
			{Name: "relaxed", Queries: 25, Acc: sushi.Range{Lo: accLo, Hi: accLo + 1}, Lat: latRange},
			{Name: "critical", Queries: 25, Acc: sushi.Range{Lo: accHi - 1, Hi: accHi}, Lat: latRange},
		}, *seed)
	case "bursty":
		qs, err = sushi.BurstyWorkload(*n, accRange, latRange, 0.1, 0.4, 6, *seed)
	case "drifting":
		qs, err = sushi.DriftingWorkload(*n,
			sushi.Range{Lo: accHi - 1, Hi: accHi}, sushi.Range{Lo: accLo, Hi: accLo + 1},
			sushi.Range{Lo: latRange.Lo, Hi: latRange.Lo * 1.5},
			sushi.Range{Lo: latRange.Hi * 0.8, Hi: latRange.Hi},
			*seed)
	default:
		fatal("unknown trace %q", *traceKind)
	}
	if err != nil {
		fatal("%v", err)
	}

	fmt.Printf("serving %d %s queries on %s (%s, %s policy, %d replicas, %s router)\n",
		len(qs), *traceKind, *wl, *mode, *policy, cl.Size(), cl.Router())
	rs, err := cl.ServeAll(ctx, qs)
	if err != nil {
		fatal("%v", err)
	}
	if *verb {
		for _, r := range rs {
			swap := ""
			if r.CacheSwapped {
				swap = " [cache swap]"
			}
			fmt.Printf("q%-4d A>=%.2f%% L<=%.2fms -> %s %.2f%% %.3fms hit=%.2f%s\n",
				r.Query.ID, r.Query.MinAccuracy, r.Query.MaxLatency*1e3,
				r.SubNet, r.Accuracy, r.Latency*1e3, r.HitRatio, swap)
		}
	}
	sum := sushi.Summarize(rs)
	fmt.Println(sum)
	// Per-replica aggregates also include the two range probes above.
	fmt.Println("per-replica (incl. 2 probe queries):")
	for _, rep := range cl.Replicas() {
		fmt.Printf("  replica %d (%s): %d queries, avg lat %.3f ms, hit %.2f, cache %s (%.2f MB), %d swaps moving %.2f MB\n",
			rep.ID, rep.State, rep.Queries, rep.AvgLatencyMS, rep.AvgHitRatio,
			rep.Cache.Name, rep.Cache.SizeMB, rep.Cache.Swaps, rep.Cache.SwapsMB)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sushi-serve: "+format+"\n", args...)
	os.Exit(1)
}
