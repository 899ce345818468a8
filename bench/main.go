// Command bench is the repository's one benchmark: it drives the three
// planes users touch — a real sushi-server process over loopback HTTP,
// the simq virtual-time engine and the infer/tensor int8 forward pass —
// on five named workloads, checks the outputs, and prints every metric
// by name and unit. BENCHMARK.json at the repository root fixes the
// command line, the metric names, their directions and their bounds.
//
//	go run -C bench . --workload http_single --seed 1 --seconds 18 --trace 0
//	go run -C bench . --seed 1                      # all five workloads
//	go run -C bench . --workload sim_elastic --trace 1 --trace-out spans.json
//	go run -C bench . --compare a.jsonl b.jsonl
//
// See README.md in this directory for what each workload and metric is
// for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envBlock records what the numbers were taken on and from: enough to
// tell two result files apart and to pin that one seed gives one input
// stream.
type envBlock struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// StreamSHA256 fingerprints the generated inputs (request bodies,
	// arrival draws, or the forward cycle's input image and order).
	StreamSHA256 string `json:"stream_sha256,omitempty"`
	// OutcomeSHA256 fingerprints the exact outputs (simulated outcomes,
	// forward logits); identical for identical seeds.
	OutcomeSHA256 string `json:"outcome_sha256,omitempty"`
	// BuildS is the wall time of `go build ./cmd/sushi-server`, kept out
	// of setup_s.
	BuildS float64 `json:"build_s,omitempty"`
}

// runResult is one (workload, seed, trace) run.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples says how many measurements stand behind the deciles and
	// percentiles.
	Samples string   `json:"samples,omitempty"`
	Notes   []string `json:"notes,omitempty"`
	Env     envBlock `json:"env"`
}

func (r *runResult) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// contractLine is the last line of standard output the benchmark
// contract asks for: exactly these four keys.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadDef ties a workload name to the plane it drives and that
// plane's configuration (nil for the planes it does not touch).
type workloadDef struct {
	name string
	http *httpWorkload
	sim  *simWorkload
}

// workloads lists the five workloads in report order; forward_switch
// has neither an HTTP nor a simq configuration.
var workloads = []workloadDef{
	{name: "http_single", http: &httpSingle},
	{name: "http_batch_mt", http: &httpBatchMT},
	{name: "sim_overload", sim: &simOverload},
	{name: "sim_elastic", sim: &simElastic},
	{name: "forward_switch"},
}

// workloadNames lists the workload names in report order.
func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// findWorkload resolves a name.
func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

// findRoot locates the repository checkout: the nearest ancestor of the
// working directory that holds cmd/sushi-server (`go run -C bench .`
// starts the program inside bench/).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for i := 0; i < 4; i++ {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "sushi-server")); err == nil && st.IsDir() {
			return dir, nil
		}
		dir = filepath.Dir(dir)
	}
	return "", fmt.Errorf("no cmd/sushi-server above the working directory; run from the repository (go run -C bench .)")
}

// runOne executes one workload and returns its result; an error means
// the run could not be carried out at all (no result is printed).
func runOne(name, root string, seed int64, seconds float64, trace int, traceOut string) (*runResult, error) {
	res := &runResult{
		Workload: name, Seed: seed, Trace: trace, Seconds: seconds,
		Metrics: map[string]metric{},
		Env:     envBlock{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()},
	}
	w, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	switch {
	case trace != 0:
		err = runTraced(w, root, seed, seconds, traceOut, res)
	case w.http != nil:
		err = runHTTP(w.http, root, seed, seconds, res)
	case w.sim != nil:
		err = runSim(w.sim, seed, seconds, res)
	default:
		err = runForward(seed, seconds, res)
	}
	if err != nil {
		return nil, err
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s attempted nothing", name)
	}
	if err := checkReported(res); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// printReport writes the human-readable table of one run.
func printReport(r *runResult) {
	fmt.Printf("== %s  seed=%d trace=%d seconds=%g  correct=%v attempted=%d failed=%d (failed_share %.6f)\n",
		r.Workload, r.Seed, r.Trace, r.Seconds, r.Correct, r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("   %-42s %16.6g %s\n", n, m.Value, m.Unit)
	}
	if r.Samples != "" {
		fmt.Printf("   samples: %s\n", r.Samples)
	}
	for _, n := range r.Notes {
		fmt.Printf("   note: %s\n", n)
	}
	e := r.Env
	fmt.Printf("   env: nproc=%d GOMAXPROCS=%d %s build_s=%.2f\n        stream_sha256=%s\n        outcome_sha256=%s\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.BuildS, e.StreamSHA256, e.OutcomeSHA256)
}

// appendResult adds one run as a JSON line to the results file the
// -compare mode reads.
func appendResult(path string, r *runResult) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all five, one after the other)")
		seed     = flag.Int64("seed", 1, "the run's only input: every generated stream derives from it")
		seconds  = flag.Float64("seconds", 18, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the recorded spans to this JSON file")
		out      = flag.String("out", "", "append each run's full result to this JSON-lines file (input of -compare)")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			os.Exit(2)
		}
		root, err := findRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}

	// A server child must never outlive the benchmark: an interrupt
	// stops the running child before the process exits.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopChildren()
		os.Exit(130)
	}()

	names := workloadNames()
	if *workload != "" {
		names = []string{*workload}
	}
	var last *runResult
	allCorrect := true
	for _, name := range names {
		res, err := runOne(name, root, *seed, *seconds, *trace, *traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		printReport(res)
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
		}
		allCorrect = allCorrect && res.Correct
		last = res
	}
	if len(names) == 1 {
		line, err := json.Marshal(contractLine{Correct: last.Correct, Attempted: last.Attempted, Failed: last.Failed, Metrics: last.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if !allCorrect {
		// The result line is still printed: a failed check is a finding,
		// not a crash. Exit status stays 0 as the contract asks; the
		// "correct" key carries the verdict.
		fmt.Fprintln(os.Stderr, "bench: output checks failed; see the notes above")
	}
}
