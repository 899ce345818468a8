// Command sushi-dse explores SushiAccel's design space (§5.3, Fig. 12):
// it sweeps the Persistent Buffer size, off-chip bandwidth and compute
// throughput under a fixed on-chip storage budget and reports the SGS
// latency saving of every point plus the best configuration.
//
// Usage:
//
//	sushi-dse [-w workload] [-pb list] [-bw list] [-tput list]
//
// Lists are comma-separated; PB sizes in KB, bandwidths in GB/s,
// throughputs in TFLOPS. Defaults reproduce Fig. 12's grid.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sushi/internal/core"
	"sushi/internal/dse"
)

func main() {
	def := dse.DefaultOptions()
	var (
		wl   = flag.String("w", "resnet50", "workload: resnet50 or mobilenetv3")
		pbs  = flag.String("pb", joinList(def.PBSizes, 1<<10), "PB sizes in KB")
		bws  = flag.String("bw", joinList(def.Bandwidths, 1e9), "off-chip bandwidths in GB/s")
		tput = flag.String("tput", joinList(def.Throughputs, 1e12), "throughputs in TFLOPS")
	)
	flag.Parse()

	opt := dse.Options{Base: def.Base}
	for _, s := range splitList(*pbs) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			fatal("bad PB size %q: %v", s, err)
		}
		opt.PBSizes = append(opt.PBSizes, v<<10)
	}
	for _, s := range splitList(*bws) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			fatal("bad bandwidth %q: %v", s, err)
		}
		opt.Bandwidths = append(opt.Bandwidths, v*1e9)
	}
	for _, s := range splitList(*tput) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			fatal("bad throughput %q: %v", s, err)
		}
		opt.Throughputs = append(opt.Throughputs, v*1e12)
	}

	super, err := core.BuildSuperNet(core.Workload(*wl))
	if err != nil {
		fatal("%v", err)
	}
	frontier, err := super.Frontier()
	if err != nil {
		fatal("%v", err)
	}
	pts, err := dse.Sweep(super, frontier, opt)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("%-8s %-9s %-7s %-10s %-11s %s\n",
		"PB(MB)", "BW(GB/s)", "TFLOPS", "base(ms)", "cached(ms)", "save%")
	for _, p := range pts {
		fmt.Printf("%-8.2f %-9.1f %-7.2f %-10.3f %-11.3f %.2f\n",
			float64(p.PBBytes)/(1<<20), p.OffChipBW/1e9, p.PeakFLOPS/1e12,
			p.BaseLatency*1e3, p.CachedLatency*1e3, p.TimeSavePct)
	}
	best, err := dse.Best(pts)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("\nbest: PB %.2f MB, %.1f GB/s, %.2f TFLOPS -> %.2f%% latency saving\n",
		float64(best.PBBytes)/(1<<20), best.OffChipBW/1e9, best.PeakFLOPS/1e12, best.TimeSavePct)
}

// joinList renders a Fig. 12 grid axis as a flag default, in units of
// unit.
func joinList[T int64 | float64](vs []T, unit float64) string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strconv.FormatFloat(float64(v)/unit, 'g', -1, 64)
	}
	return strings.Join(out, ",")
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sushi-dse: "+format+"\n", args...)
	os.Exit(1)
}
