package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparison needs: each
// end-to-end metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// resultSet is one result file: the untraced runs' metric values by
// workload and metric name, and every run's exact-outcome digest by
// workload and seed.
type resultSet struct {
	values  map[string]map[string][]float64
	digests map[string]map[int64]string
}

// readResults loads a JSON-lines result file (-out).
func readResults(path string) (*resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	digests := map[string]map[int64]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
			digests[r.Workload] = map[int64]string{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
		if r.Env.OutcomeSHA256 != "" {
			digests[r.Workload][r.Seed] = r.Env.OutcomeSHA256
		}
	}
	return &resultSet{values: out, digests: digests}, sc.Err()
}

// Verdicts of one (metric, workload) comparison.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of one metric on one workload. delta is b's
// median relative to a's, signed so that positive means worse. The
// rules are the choosing-metrics guide's: worse when the median moved
// past the bound; unresolved (not "same") when either side's
// run-to-run spread is wider than the bound, unless every run of b
// beats every run of a; better when the medians differ by more than a's
// own spread in the good direction.
func judge(a, b []float64, higherBetter bool, bound float64) (verdict string, delta, spreadA, spreadB float64) {
	ma, mb := median(a), median(b)
	delta = (mb - ma) / ma
	if higherBetter {
		delta = -delta
	}
	spreadA, spreadB = spread(a), spread(b)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if higherBetter && !(y > x) || !higherBetter && !(y < x) {
				allBetter = false
			}
		}
	}
	switch {
	case max(spreadA, spreadB) > bound:
		if allBetter {
			return verdictBetter, delta, spreadA, spreadB
		}
		return verdictUnresolved, delta, spreadA, spreadB
	case delta > bound:
		return verdictWorse, delta, spreadA, spreadB
	case -delta > spreadA && delta < 0:
		return verdictBetter, delta, spreadA, spreadB
	default:
		return verdictSame, delta, spreadA, spreadB
	}
}

// compareFiles prints, for every (end-to-end metric, workload) pair
// present in both result files, b's change against a and the verdict
// under the metric's bound; and, for every (workload, seed) both files
// ran, whether the exact outcomes (simulated outcomes, forward logits)
// are still bit-identical. It reports whether any pair is worse or
// unresolved or any exact outcome moved — a moved outcome is a
// behaviour change to be claimed or explained, never noise.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (bad bool, err error) {
	spec, err := readBenchSpec(specPath)
	if err != nil {
		return false, err
	}
	ra, err := readResults(aPath)
	if err != nil {
		return false, err
	}
	rb, err := readResults(bPath)
	if err != nil {
		return false, err
	}
	a, b := ra.values, rb.values
	var workloads []string
	for name := range a {
		if b[name] != nil {
			workloads = append(workloads, name)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		return false, fmt.Errorf("%s and %s share no workload", aPath, bPath)
	}
	fmt.Fprintf(w, "%-15s %-18s %14s %14s %9s %8s %8s %7s  %s\n",
		"workload", "metric", "a median", "b median", "worse by", "a iqr", "b iqr", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			av, bv := a[wl][m.Name], b[wl][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			verdict, delta, sa, sb := judge(av, bv, m.Better == "higher", m.Bound)
			if verdict == verdictWorse || verdict == verdictUnresolved {
				bad = true
			}
			fmt.Fprintf(w, "%-15s %-18s %14.6g %14.6g %+8.2f%% %7.2f%% %7.2f%% %6.0f%%  %s (n=%d,%d)\n",
				wl, m.Name, median(av), median(bv), 100*delta, 100*sa, 100*sb, 100*m.Bound, verdict, len(av), len(bv))
		}
	}
	for _, wl := range workloads {
		var shared, moved []int64
		for seed, da := range ra.digests[wl] {
			if db, ok := rb.digests[wl][seed]; ok {
				shared = append(shared, seed)
				if da != db {
					moved = append(moved, seed)
				}
			}
		}
		switch {
		case len(shared) == 0:
		case len(moved) == 0:
			fmt.Fprintf(w, "%-15s exact outcomes identical on all %d shared seeds\n", wl, len(shared))
		default:
			bad = true
			slices.Sort(moved)
			fmt.Fprintf(w, "%-15s EXACT OUTCOMES MOVED on seeds %v (of %d shared): a behaviour change\n", wl, moved, len(shared))
		}
	}
	return bad, nil
}
