package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json and the code must name the same workloads and metrics,
// with the same units and directions, within the contract's limits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	once := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if used[n] {
			t.Errorf("name %q used twice", n)
		}
		used[n] = true
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		once(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, code has %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(spec.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range spec.EndToEnd {
		once(m.Name)
		if got := (metricDef{m.Name, m.Unit, m.Better}); got != endToEnd[i] {
			t.Errorf("end-to-end metric %d is %+v, code has %+v", i, got, endToEnd[i])
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(spec.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code (limit 128)", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		once(m.Name)
		if got := (metricDef{m.Name, m.Unit, m.Better}); got != perLayer[i] {
			t.Errorf("per-layer metric %d is %+v, code has %+v", i, got, perLayer[i])
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

func TestCheckReported(t *testing.T) {
	r := &runResult{Workload: "w", Metrics: map[string]metric{}}
	for _, d := range endToEnd {
		r.set(d.Name, 1, d.Unit)
	}
	if err := checkReported(r); err != nil {
		t.Errorf("complete set rejected: %v", err)
	}
	r.set("extra", 1, "s")
	if err := checkReported(r); err == nil {
		t.Error("an unexpected metric passed")
	}
	delete(r.Metrics, "extra")
	delete(r.Metrics, "setup_s")
	if err := checkReported(r); err == nil {
		t.Error("a missing metric passed")
	}
	r.set("setup_s", 1, "ms")
	if err := checkReported(r); err == nil {
		t.Error("a wrong unit passed")
	}
}
