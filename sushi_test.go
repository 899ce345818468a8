package sushi

import (
	"context"
	"strings"
	"testing"

	"sushi/internal/accel"
)

// TestNewDefaultsServe: a default deployment is one accelerator that
// serves from the full MobileNetV3 frontier.
func TestNewDefaultsServe(t *testing.T) {
	sys, err := NewCluster(Options{Workload: MobileNetV3})
	if err != nil {
		t.Fatal(err)
	}
	fr := sys.Frontier()
	if len(fr) != 7 {
		t.Fatalf("frontier %d, want 7", len(fr))
	}
	for i := 1; i < len(fr); i++ {
		if fr[i].Accuracy <= fr[i-1].Accuracy || fr[i].GFLOPs <= fr[i-1].GFLOPs {
			t.Errorf("frontier not monotone at %d: %+v vs %+v", i, fr[i-1], fr[i])
		}
	}
	res, err := sys.Serve(context.Background(), Query{ID: 0, MinAccuracy: fr[2].Accuracy, MaxLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < fr[2].Accuracy {
		t.Errorf("served %.2f%% below constraint %.2f%%", res.Accuracy, fr[2].Accuracy)
	}
}

func TestServeAllAndSummarize(t *testing.T) {
	sys, err := NewCluster(Options{Workload: MobileNetV3, Policy: StrictLatency})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := UniformWorkload(50, Range{Lo: 76, Hi: 80}, Range{Lo: 2e-3, Hi: 8e-3}, 9)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sys.ServeAll(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(rs)
	if sum.Queries != 50 || sum.AvgLatency <= 0 {
		t.Fatalf("bad summary %+v", sum)
	}
}

func TestCacheState(t *testing.T) {
	sys, err := NewCluster(Options{Workload: MobileNetV3})
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Replicas()[0].Cache
	if st.Name == "" || st.Bytes <= 0 {
		t.Fatalf("full system should boot with a cached SubGraph: %+v", st)
	}
	noPB, err := NewCluster(Options{Workload: MobileNetV3, Mode: NoPB})
	if err != nil {
		t.Fatal(err)
	}
	if st := noPB.Replicas()[0].Cache; st.Name != "" || st.Bytes != 0 {
		t.Fatalf("NoPB system should have an empty cache: %+v", st)
	}
}

func TestExperimentDispatch(t *testing.T) {
	if _, err := Experiment("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(Experiments()) < 15 {
		t.Error("experiment list too short")
	}
}

// TestEveryListedExperimentRuns pins the registry invariant without
// running anything: every id Experiments() advertises is run by a test,
// its text pin or, for the two ids whose cells hold wall-clock times,
// the test named here.
func TestEveryListedExperimentRuns(t *testing.T) {
	runBy := map[string]string{
		"table6":   "internal/core TestTable6Experiment",
		"fidelity": "internal/core TestPaperFidelity",
	}
	for _, p := range experimentPins {
		name, _, _ := strings.Cut(p.id, ":")
		runBy[name] = "TestExperimentTextPinned/" + p.id
	}
	for _, id := range Experiments() {
		t.Run(id, func(t *testing.T) {
			if runBy[id] == "" {
				t.Error("listed experiment is run by no test: pin its text in experimentPins")
			}
		})
	}
}

func TestExperimentWorkloadSuffix(t *testing.T) {
	res, err := Experiment("fig2:mobilenetv3")
	if err != nil {
		t.Fatal(err)
	}
	if out := res.String(); !strings.Contains(out, "MobV3") {
		t.Errorf("workload suffix ignored: %s", out[:80])
	}
	// Every id checks the suffix, workload-insensitive ones included.
	for _, id := range []string{"fig2:alexnet", "fig3:alexnet", "table1:alexnet"} {
		if _, err := Experiment(id); err == nil {
			t.Errorf("%s: bogus workload accepted", id)
		}
	}
	// A valid suffix on a workload-insensitive id changes nothing.
	plain, err := Experiment("fig3")
	if err != nil {
		t.Fatal(err)
	}
	suffixed, err := Experiment("fig3:mobilenetv3")
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != suffixed.String() {
		t.Errorf("fig3:mobilenetv3 renders differently from fig3:\n%s\nvs\n%s", suffixed, plain)
	}
}

func TestPresetsExposed(t *testing.T) {
	for _, cfg := range []AccelConfig{ZCU104(), AlveoU50(), accel.RooflineStudy()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}
