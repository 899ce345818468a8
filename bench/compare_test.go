package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name         string
		a, b         []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"same code", steady, steady, false, 0.10, verdictSame},
		{"latency up 20% past a 10% bound", steady, scale(steady, 1.2), false, 0.10, verdictWorse},
		{"latency up 5% within a 10% bound", steady, scale(steady, 1.05), false, 0.10, verdictSame},
		{"latency down 20%", steady, scale(steady, 0.8), false, 0.10, verdictBetter},
		{"throughput down 20%", steady, scale(steady, 0.8), true, 0.10, verdictWorse},
		{"throughput up 20%", steady, scale(steady, 1.2), true, 0.10, verdictBetter},
		{"spread wider than the bound", noisy, scale(noisy, 1.02), false, 0.10, verdictUnresolved},
		{"noisy, but every run better", noisy, scale(steady, 0.3), false, 0.10, verdictBetter},
	} {
		got, _, _, _ := judge(c.a, c.b, c.higherBetter, c.bound)
		if got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(spec, []byte(`{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"queries_per_s","unit":"1/s","better":"higher","bound":0.1},
		{"name":"latency_typical_us","unit":"us","better":"lower","bound":0.1}]}`), 0o644)
	write := func(name string, qps, lat float64) string {
		path := filepath.Join(dir, name)
		var buf bytes.Buffer
		for i := 0; i < 4; i++ {
			json.NewEncoder(&buf).Encode(runResult{Workload: "w", Metrics: map[string]metric{
				"queries_per_s":      {Value: qps + float64(i), Unit: "1/s"},
				"latency_typical_us": {Value: lat + float64(i)/10, Unit: "us"},
			}})
		}
		// A traced run in the same file is not an end-to-end sample.
		json.NewEncoder(&buf).Encode(runResult{Workload: "w", Trace: 1, Metrics: map[string]metric{"queries_per_s": {Value: 1}}})
		os.WriteFile(path, buf.Bytes(), 0o644)
		return path
	}
	a, same, slow := write("a.jsonl", 1000, 100), write("same.jsonl", 1001, 100.1), write("slow.jsonl", 700, 100)
	var out bytes.Buffer
	if bad, err := compareFiles(&out, spec, a, same); err != nil || bad {
		t.Errorf("identical code flagged: bad=%v err=%v\n%s", bad, err, out.String())
	}
	out.Reset()
	bad, err := compareFiles(&out, spec, a, slow)
	if err != nil || !bad {
		t.Errorf("a 30%% throughput loss passed: bad=%v err=%v", bad, err)
	}
	if !strings.Contains(out.String(), verdictWorse) || !strings.Contains(out.String(), "n=4,4") {
		t.Errorf("report lacks the verdict or the sample counts:\n%s", out.String())
	}
}
