// Command sushi-bench regenerates the tables and figures of the paper's
// evaluation (§5 and the appendix) on the simulated SushiAccel.
//
// Usage:
//
//	sushi-bench [-w workload] [-json] [-csv dir] [-cpuprofile f] [-memprofile f] [experiment ...]
//	sushi-bench all
//	sushi-bench list
//	sushi-bench -record-trace f [-trace-queries n]
//	sushi-bench -replay-trace f [-json]
//	sushi-bench -calibrate [-w workload] [-table-out f] [-reps k] [-batches 1,2,4] [-calib-seed n] [-json]
//
// sushi-bench list prints the experiment ids; sushi-bench fidelity
// scores every reproduced number against the paper's. The -w flag
// (resnet50|mobilenetv3) applies to workload-parameterized experiments;
// without it each experiment runs on its own default workload.
//
// With -json, the human-readable tables are replaced by one NDJSON
// record per experiment on stdout — name, ns_per_op (wall time of the
// run) and the experiment's metrics (its reproduced values) — so
// results can be read by machines instead of scraped from prose.
//
// -calibrate sweeps a MEASURED latency table on this machine: every
// (frontier SubNet × candidate SubGraph × batch) cell is timed through
// the fast inference engine (median of -reps repetitions,
// deterministically seeded by -calib-seed), the predicted-vs-measured
// report is printed, and -table-out writes the versioned table file
// sushi-server -table serves from, plus a human-readable <file>.csv
// companion. -calib-rows/-calib-cols cap the grid for smoke runs. With
// -json the run emits one NDJSON calibration record (wall time, report
// error percentiles).
//
// -record-trace captures the skewed 100-cohort population as a
// versioned trace v2 file (-trace-queries sets the stream length,
// default 600); -replay-trace plays such a file back through a fresh
// 4-replica MobileNetV3 fleet — same seed, same fleet, bit-exact
// outcomes — so a recorded workload reproduces anywhere.
//
// -cpuprofile and -memprofile write pprof profiles covering the whole
// experiment batch (the CPU profile spans every run; the heap profile
// is snapshotted at exit), for digging into engine hot paths with
// `go tool pprof`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"sushi"
)

// benchRecord is one -json output line.
type benchRecord struct {
	// Name is the experiment id as invoked (without workload suffix).
	Name string `json:"name"`
	// Workload is the -w value the experiment ran with (empty without
	// -w: the experiment's default workload applies).
	Workload string `json:"workload,omitempty"`
	// NsPerOp is the wall-clock time of the single run in nanoseconds.
	NsPerOp int64 `json:"ns_per_op"`
	// Metrics carries every metric the experiment exported.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// parseBatches parses the -batches list ("1,2,4").
func parseBatches(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("batch %q: %w", p, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	// The profile writers run as defers, so the exit code must leave
	// through a return, not os.Exit.
	os.Exit(run())
}

func run() int {
	w := flag.String("w", "resnet50", "workload: resnet50 or mobilenetv3 (experiments without -w run on their own default)")
	csvDir := flag.String("csv", "", "also write each experiment as CSV into this directory")
	asJSON := flag.Bool("json", false, "emit one NDJSON record per experiment (name, ns_per_op, metrics) instead of text tables")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile covering every experiment run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after a final GC) to this file at exit")
	recordTrace := flag.String("record-trace", "", "record the skewed 100-cohort population as a trace v2 file and exit")
	traceQueries := flag.Int("trace-queries", 0, "stream length for -record-trace (0 = 600)")
	replayTrace := flag.String("replay-trace", "", "replay a trace v2 file through a fresh 4-replica MobileNetV3 fleet and exit")
	doCalibrate := flag.Bool("calibrate", false, "sweep a measured latency table on this machine and print the calibration report")
	tableOut := flag.String("table-out", "", "write the measured table file here (with -calibrate)")
	calibReps := flag.Int("reps", 3, "median-of-k repetitions per calibration cell (with -calibrate)")
	calibBatches := flag.String("batches", "1,2,4", "comma-separated measured batch sizes, ascending from 1 (with -calibrate)")
	calibSeed := flag.Int64("calib-seed", 1, "seed for calibration candidates, weights and inputs (with -calibrate)")
	calibRows := flag.Int("calib-rows", 0, "cap measured frontier rows for smoke grids (0 = full frontier; capped tables cannot serve)")
	calibCols := flag.Int("calib-cols", 0, "cap measured candidate columns for smoke grids (0 = all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sushi-bench [-w workload] [-json] [-csv dir] [-cpuprofile f] [-memprofile f] [experiment ...|all|list]\n")
		fmt.Fprintf(os.Stderr, "       sushi-bench -record-trace f [-trace-queries n] | -replay-trace f [-json]\n")
		fmt.Fprintf(os.Stderr, "       sushi-bench -calibrate [-w workload] [-table-out f] [-reps k] [-batches 1,2,4] [-calib-seed n] [-json]\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "experiments: %v\n", sushi.Experiments())
	}
	flag.Parse()
	wSet := false
	flag.Visit(func(f *flag.Flag) { wSet = wSet || f.Name == "w" })

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sushi-bench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sushi-bench: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sushi-bench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "sushi-bench: -memprofile: %v\n", err)
			}
		}()
	}

	if *recordTrace != "" {
		tr, err := sushi.RecordCohortTrace(*traceQueries)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sushi-bench: -record-trace: %v\n", err)
			return 1
		}
		if err := writeFile(*recordTrace, tr.Encode); err != nil {
			fmt.Fprintf(os.Stderr, "sushi-bench: -record-trace: %v\n", err)
			return 1
		}
		fmt.Printf("sushi-bench: recorded %d queries (%d cohorts, seed %d) to %s\n",
			len(tr.Records), len(tr.Cohorts), tr.Seed, *recordTrace)
		return 0
	}
	if *replayTrace != "" {
		f, err := os.Open(*replayTrace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sushi-bench: -replay-trace: %v\n", err)
			return 1
		}
		tr, err := sushi.DecodeTraceV2(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sushi-bench: -replay-trace: %v\n", err)
			return 1
		}
		start := time.Now()
		res, err := sushi.ReplayTrace(tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sushi-bench: -replay-trace: %v\n", err)
			return 1
		}
		if *asJSON {
			elapsed := time.Since(start)
			rec := benchRecord{Name: "replay", NsPerOp: elapsed.Nanoseconds(), Metrics: res.Metrics}
			if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
				fmt.Fprintf(os.Stderr, "sushi-bench: -replay-trace: %v\n", err)
				return 1
			}
			return 0
		}
		fmt.Print(res.String())
		return 0
	}

	if *doCalibrate {
		batches, err := parseBatches(*calibBatches)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sushi-bench: -batches: %v\n", err)
			return 2
		}
		start := time.Now()
		f, rep, err := sushi.Calibrate(sushi.CalibrateOptions{
			Workload: sushi.Workload(*w),
			Reps:     *calibReps,
			Batches:  batches,
			Seed:     *calibSeed,
			Rows:     *calibRows,
			Cols:     *calibCols,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sushi-bench: -calibrate: %v\n", err)
			return 1
		}
		elapsed := time.Since(start)
		if *tableOut != "" {
			if err := sushi.WriteCalibrationFile(*tableOut, f); err != nil {
				fmt.Fprintf(os.Stderr, "sushi-bench: -table-out: %v\n", err)
				return 1
			}
			// Human-readable companion; the gob file stays authoritative.
			if err := writeFile(*tableOut+".csv", f.WriteCSV); err != nil {
				fmt.Fprintf(os.Stderr, "sushi-bench: -table-out csv: %v\n", err)
				return 1
			}
		}
		if *asJSON {
			rec := benchRecord{
				Name:     "calibrate",
				Workload: *w,
				NsPerOp:  elapsed.Nanoseconds(),
				Metrics: map[string]float64{
					"rows":              float64(len(f.SubNetNames)),
					"cols":              float64(len(f.GraphNames)),
					"batches":           float64(len(f.Batches)),
					"reps":              float64(f.Reps),
					"seed":              float64(f.Seed),
					"fetch_ns_per_byte": f.FetchNsPerByte,
					"report_scale":      rep.Scale,
					"mean_abs_err_pct":  100 * rep.MeanErr,
					"p95_abs_err_pct":   100 * rep.P95Err,
					"max_abs_err_pct":   100 * rep.MaxErr,
				},
			}
			if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
				fmt.Fprintf(os.Stderr, "sushi-bench: -calibrate: %v\n", err)
				return 1
			}
			return 0
		}
		fmt.Printf("sushi-bench: calibrated %d x %d x %d cells (workload %s, seed %d, reps %d) in %.1fs\n",
			len(f.SubNetNames), len(f.GraphNames), len(f.Batches), *w, f.Seed, f.Reps, elapsed.Seconds())
		fmt.Print(rep.String())
		if *tableOut != "" {
			fmt.Printf("sushi-bench: wrote measured table to %s (+ %s.csv)\n", *tableOut, *tableOut)
		}
		return 0
	}

	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		return 2
	}
	if args[0] == "list" {
		for _, id := range sushi.Experiments() {
			fmt.Println(id)
		}
		return 0
	}
	ids := args
	if args[0] == "all" {
		ids = sushi.Experiments()
	}
	enc := json.NewEncoder(os.Stdout)
	exit := 0
	for _, id := range ids {
		full, workload := id, ""
		if wSet {
			full, workload = id+":"+*w, *w
		}
		start := time.Now()
		res, err := sushi.Experiment(full)
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sushi-bench: %s: %v\n", id, err)
			exit = 1
			continue
		}
		if *asJSON {
			rec := benchRecord{Name: id, Workload: workload, NsPerOp: elapsed.Nanoseconds(), Metrics: res.Metrics}
			if err := enc.Encode(rec); err != nil {
				fmt.Fprintf(os.Stderr, "sushi-bench: %s: %v\n", id, err)
				exit = 1
			}
		} else {
			fmt.Print(res.String())
		}
		if *csvDir != "" {
			if err := writeFile(filepath.Join(*csvDir, id+".csv"), res.WriteCSV); err != nil {
				fmt.Fprintf(os.Stderr, "sushi-bench: %s csv: %v\n", id, err)
				exit = 1
			}
		}
	}
	return exit
}
