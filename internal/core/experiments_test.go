package core

import (
	"errors"
	"strings"
	"testing"

	"sushi/internal/serving"
)

func TestFig10Experiment(t *testing.T) {
	for _, w := range []Workload{ResNet50, MobileNetV3} {
		r, err := defaultSetting.Fig10(w)
		if err != nil {
			t.Fatal(err)
		}
		if lo, hi := r.Metrics["save_min_pct"], r.Metrics["save_max_pct"]; lo <= 0 || lo > hi || hi > 40 {
			t.Errorf("%s: saves %.1f-%.1f%% outside (0, 40]", w, lo, hi)
		}
	}
}

// TestFig10SavingsBands: the PB covers more of the smaller family, so
// MobileNetV3's best potential saving exceeds ResNet50's.
func TestFig10SavingsBands(t *testing.T) {
	maxSave := func(w Workload) float64 {
		r, err := defaultSetting.Fig10(w)
		if err != nil {
			t.Fatal(err)
		}
		return r.Metrics["save_max_pct"]
	}
	rn, mb := maxSave(ResNet50), maxSave(MobileNetV3)
	if mb <= rn {
		t.Errorf("MobV3 max save %.1f%% should exceed ResNet50's %.1f%%", mb, rn)
	}
}

func TestFig12Experiment(t *testing.T) {
	r, err := defaultSetting.Fig12(MobileNetV3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 20 {
		t.Fatalf("DSE grid too small: %d", len(r.Rows))
	}
	if save := r.Metrics["save_min_pct"]; save < -0.5 {
		t.Errorf("a DSE point regresses: %.2f%% saving", save)
	}
}

func TestFig13aExperiment(t *testing.T) {
	r, err := defaultSetting.Fig13a()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("%d rows, want 6 SubNets", len(r.Rows))
	}
	if n := r.Metrics["pb_slowdowns"]; n != 0 {
		t.Errorf("the PB increased a board's latency on %v SubNets", n)
	}
}

func TestFig13bExperiment(t *testing.T) {
	floor := map[Workload]float64{}
	for _, w := range []Workload{ResNet50, MobileNetV3} {
		r, err := defaultSetting.Fig13b(w)
		if err != nil {
			t.Fatal(err)
		}
		floor[w] = r.Metrics["energy_save_min_pct"]
	}
	// The two experiments differ in scope by design (RN50 runs 3x3 conv
	// layers per §5.4; MobV3 the full network), so compare the floors:
	// the PB always covers a larger fraction of MobV3's traffic.
	if floor[MobileNetV3] <= floor[ResNet50] {
		t.Error("MobV3 min energy save should exceed ResNet50's")
	}
}

func TestFig16Experiment(t *testing.T) {
	r, err := defaultSetting.Fig16(MobileNetV3, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d systems", len(r.Rows))
	}
	// Served accuracy identical across systems under strict accuracy.
	if r.Rows[0][3] != r.Rows[2][3] {
		t.Errorf("accuracy differs: %s vs %s", r.Rows[0][3], r.Rows[2][3])
	}
}

func TestFig17Experiment(t *testing.T) {
	r, err := defaultSetting.Fig17(MobileNetV3, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("%d Q values", len(r.Rows))
	}
	// With swap cost charged, Q=1 must be worse than the best Q>1
	// (Appendix A.1's "prohibitively expensive" observation).
	if q := r.Metrics["best_q"]; q <= 1 {
		t.Errorf("best Q %v: no Q>1 beats Q=1 when swap cost is charged", q)
	}
}

func TestTable1Experiment(t *testing.T) {
	r, err := defaultSetting.Table1()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, row := range r.Rows {
		names[row[0]] = true
	}
	for _, want := range []string{"DB", "SB", "LB", "OB", "PB", "ZSB"} {
		if !names[want] {
			t.Errorf("missing buffer %s", want)
		}
	}
}

func TestTable2Experiment(t *testing.T) {
	r, err := defaultSetting.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// Peak ops rows must match the paper exactly (architectural).
	if r.Rows[0][6] != "2592" || r.Rows[2][6] != "9216" || r.Rows[4][6] != "2304" {
		t.Errorf("peak ops wrong: %v / %v / %v", r.Rows[0][6], r.Rows[2][6], r.Rows[4][6])
	}
}

func TestTable3Experiment(t *testing.T) {
	r, err := defaultSetting.Table3()
	if err != nil {
		t.Fatal(err)
	}
	last := r.Rows[len(r.Rows)-1]
	if last[0] != "Overall" || last[1] != last[2] {
		t.Errorf("overall storage must match across designs: %v", last)
	}
}

func TestTable4Experiment(t *testing.T) {
	r, err := defaultSetting.Table4()
	if err != nil {
		t.Fatal(err)
	}
	sushi := r.Rows[len(r.Rows)-1]
	if sushi[0] != "SUSHI" || !strings.Contains(sushi[4], "spatial") {
		t.Errorf("SUSHI row wrong: %v", sushi)
	}
}

func TestTable5Experiment(t *testing.T) {
	r, err := defaultSetting.Table5(MobileNetV3, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows", len(r.Rows))
	}
}

func TestTable6Experiment(t *testing.T) {
	r, err := defaultSetting.Table6(MobileNetV3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// Column search must stay well under typical inference time (ms); the
	// race detector slows wall-clock timings ~10x, so not under it.
	if us := r.Metrics["nearest_max_us"]; !raceEnabled && us > 1000 {
		t.Errorf("nearest-graph search %.1f us too slow", us)
	}
}

func TestHitRatioA4Experiment(t *testing.T) {
	r, err := defaultSetting.HitRatioA4(80)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	if rn, mb := r.Metrics["hit_ratio_resnet50"], r.Metrics["hit_ratio_mobilenetv3"]; mb <= rn {
		t.Errorf("MobV3 hit %.2f should exceed ResNet50 %.2f", mb, rn)
	}
}

func TestFig9Experiment(t *testing.T) {
	r, err := defaultSetting.Fig9(ResNet50)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatalf("only %d tiles", len(r.Rows))
	}
	// Nothing precedes the first tile's fetch to hide it behind.
	if r.Rows[0][3] != "no" {
		t.Errorf("first tile marked hidden: %v", r.Rows[0])
	}
	if len(r.Notes) < 2 || !strings.Contains(r.Notes[1], "saves") {
		t.Errorf("missing multi-query note: %v", r.Notes)
	}
}

func TestOverloadExperiment(t *testing.T) {
	r, err := defaultSetting.Overload(MobileNetV3, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("%d rows, want 6 (3 rates x 2 systems)", len(r.Rows))
	}
	// Load-aware SUSHI meets more deadlines at every rate: the static top
	// model's service time is ~budget/1.1, so queueing hurts it at 0.5x.
	if gain := r.Metrics["slo_gain_min_pp"]; gain <= 0 {
		t.Errorf("load-aware SLO attainment leads static by %.1f points at worst", gain)
	}
}

// TestClusterBatchOptionValidation: DeployCluster rejects malformed
// batch policies with a typed OptionError.
func TestClusterBatchOptionValidation(t *testing.T) {
	_, err := DeployCluster(DeployOptions{Workload: MobileNetV3},
		ClusterOptions{Batch: &serving.BatchPolicy{MaxBatch: -2}})
	var oe *OptionError
	if !errors.As(err, &oe) {
		t.Fatalf("negative batch size: got %v, want OptionError", err)
	}
}
