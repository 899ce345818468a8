package core

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"sushi/internal/sched"
	"sushi/internal/serving"
)

// col extracts a numeric cell (stripping unit suffixes).
func col(t *testing.T, row []string, i int) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.Fields(row[i])[0], "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", row[i], err)
	}
	return v
}

func TestFig2Experiment(t *testing.T) {
	for _, w := range []Workload{ResNet50, MobileNetV3} {
		r, err := Fig2(w)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) < 20 {
			t.Errorf("%s: only %d conv layers profiled", w, len(r.Rows))
		}
		for _, row := range r.Rows {
			if ai := col(t, row, 3); ai <= 0 {
				t.Errorf("%s: non-positive AI in %v", w, row)
			}
		}
	}
}

func TestFig3Experiment(t *testing.T) {
	r, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || len(r.Rows[0]) != 5 {
		t.Fatalf("unexpected grid %dx%d", len(r.Rows), len(r.Rows[0]))
	}
	// Fig. 3's claim: the deep&thin SubNet is served fastest under a
	// deep-shaped cache; the wide&shallow SubNet under a wide-shaped one.
	deepUnderDeep := col(t, r.Rows[0], 1)
	deepUnderWide := col(t, r.Rows[0], 4)
	wideUnderDeep := col(t, r.Rows[1], 1)
	wideUnderWide := col(t, r.Rows[1], 4)
	if deepUnderDeep >= deepUnderWide {
		t.Errorf("deep&thin: deep cache %.4f !< wide cache %.4f", deepUnderDeep, deepUnderWide)
	}
	if wideUnderWide >= wideUnderDeep {
		t.Errorf("wide&shallow: wide cache %.4f !< deep cache %.4f", wideUnderWide, wideUnderDeep)
	}
}

func TestFig10Experiment(t *testing.T) {
	for _, w := range []Workload{ResNet50, MobileNetV3} {
		r, err := Fig10(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range r.Rows {
			total := col(t, row, 7)
			cached := col(t, row, 8)
			save := col(t, row, 9)
			if cached >= total {
				t.Errorf("%s %s: SGS latency %.3f !< base %.3f", w, row[0], cached, total)
			}
			if save <= 0 || save > 40 {
				t.Errorf("%s %s: save %.1f%% outside (0, 40]", w, row[0], save)
			}
			// The five components must sum to the total (stacked bars).
			sum := col(t, row, 2) + col(t, row, 3) + col(t, row, 4) + col(t, row, 5) + col(t, row, 6)
			if diff := sum - total; diff > 0.01*total || diff < -0.01*total {
				t.Errorf("%s %s: components sum %.3f != total %.3f", w, row[0], sum, total)
			}
		}
	}
}

// TestFig10SavingsBands: the PB covers more of the smaller family, so
// MobileNetV3's best potential saving exceeds ResNet50's.
func TestFig10SavingsBands(t *testing.T) {
	maxSave := func(w Workload) float64 {
		r, err := Fig10(w)
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

func TestFig11Experiment(t *testing.T) {
	r, err := Fig11(MobileNetV3)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		ai, aiSGS := col(t, row, 1), col(t, row, 3)
		if aiSGS < ai {
			t.Errorf("%s: SGS intensity %.1f < base %.1f", row[0], aiSGS, ai)
		}
		if tf, tfSGS := col(t, row, 2), col(t, row, 4); tfSGS < tf {
			t.Errorf("%s: SGS TFLOPS %.3f < base %.3f", row[0], tfSGS, tf)
		}
	}
}

func TestFig12Experiment(t *testing.T) {
	r, err := Fig12(MobileNetV3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 20 {
		t.Fatalf("DSE grid too small: %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if save := col(t, row, 5); save < -0.5 {
			t.Errorf("DSE point regresses: %v", row)
		}
	}
}

func TestFig13aExperiment(t *testing.T) {
	r, err := Fig13a()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("%d rows, want 6 SubNets", len(r.Rows))
	}
	for _, row := range r.Rows {
		zcu, zcuPB := col(t, row, 2), col(t, row, 3)
		u50, u50PB := col(t, row, 4), col(t, row, 5)
		if zcuPB > zcu || u50PB > u50 {
			t.Errorf("%s: PB increased latency", row[0])
		}
	}
	// Paper: U50 (scale-up) loses to ZCU104 on the smallest SubNets due
	// to off-chip domination but wins on the largest.
	small := r.Rows[0]
	large := r.Rows[len(r.Rows)-1]
	if col(t, small, 5) < col(t, small, 3) {
		t.Error("U50 should not beat ZCU104 on the smallest SubNet (off-chip dominated)")
	}
	if col(t, large, 5) > col(t, large, 3) {
		t.Error("U50 should beat ZCU104 on the largest SubNet (compute dominated)")
	}
}

func TestFig13bExperiment(t *testing.T) {
	floor := map[Workload]float64{}
	for _, w := range []Workload{ResNet50, MobileNetV3} {
		r, err := Fig13b(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range r.Rows {
			if offNo, offPB := col(t, row, 1), col(t, row, 3); offPB >= offNo {
				t.Errorf("%s %s: PB did not cut off-chip weight energy", w, row[0])
			}
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

func TestFig14Experiment(t *testing.T) {
	r, err := Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no layers")
	}
	wins, losses := 0, 0
	for _, row := range r.Rows {
		if ratio := col(t, row, 6); ratio > 1 {
			wins++
		} else {
			losses++
		}
	}
	if wins == 0 || losses == 0 {
		t.Errorf("expected mixed outcomes (paper: mostly wins, seldom losses); wins=%d losses=%d", wins, losses)
	}
}

func TestFig15Experiment(t *testing.T) {
	for _, tc := range []struct {
		w Workload
		p sched.Policy
	}{
		{ResNet50, sched.StrictLatency},
		{ResNet50, sched.StrictAccuracy},
		{MobileNetV3, sched.StrictLatency},
		{MobileNetV3, sched.StrictAccuracy},
	} {
		r, err := Fig15(tc.w, tc.p, 100)
		if err != nil {
			t.Fatal(err)
		}
		// The first note reports violations; require zero.
		if !strings.Contains(r.Notes[0], "(0 violations)") {
			t.Errorf("%s/%v: %s", tc.w, tc.p, r.Notes[0])
		}
	}
}

func TestFig16Experiment(t *testing.T) {
	r, err := Fig16(MobileNetV3, 120)
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
	r, err := Fig17(MobileNetV3, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("%d Q values", len(r.Rows))
	}
	// Swap counts must fall as Q grows.
	prev := 1 << 30
	for _, row := range r.Rows {
		swaps := int(col(t, row, 3))
		if swaps > prev {
			t.Errorf("swaps grew with Q: %v", row)
		}
		prev = swaps
	}
	// With swap cost charged, Q=1 must be worse than the best Q>1
	// (Appendix A.1's "prohibitively expensive" observation).
	q1 := col(t, r.Rows[0], 1)
	best := q1
	for _, row := range r.Rows[1:] {
		if v := col(t, row, 1); v < best {
			best = v
		}
	}
	if best >= q1 {
		t.Errorf("some Q>1 should beat Q=1 when swap cost is charged (q1=%.4f best=%.4f)", q1, best)
	}
}

func TestTable1Experiment(t *testing.T) {
	r, err := Table1()
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
	r, err := Table2()
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
	r, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	last := r.Rows[len(r.Rows)-1]
	if last[0] != "Overall" || last[1] != last[2] {
		t.Errorf("overall storage must match across designs: %v", last)
	}
}

func TestTable4Experiment(t *testing.T) {
	r, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	sushi := r.Rows[len(r.Rows)-1]
	if sushi[0] != "SUSHI" || !strings.Contains(sushi[4], "spatial") {
		t.Errorf("SUSHI row wrong: %v", sushi)
	}
}

func TestTable5Experiment(t *testing.T) {
	r, err := Table5(MobileNetV3, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows", len(r.Rows))
	}
}

func TestTable6Experiment(t *testing.T) {
	r, err := Table6(MobileNetV3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// Column search must stay well under typical inference time (ms) and
	// grow with table size overall. The race detector slows wall-clock
	// timings ~10x, so the absolute bound only holds without it.
	first := col(t, r.Rows[0], 1)
	last := col(t, r.Rows[len(r.Rows)-1], 1)
	if !raceEnabled && last > 1000 {
		t.Errorf("nearest-graph search %.1f us too slow", last)
	}
	if last < first {
		t.Logf("note: search time did not grow monotonically (%.2f -> %.2f us), acceptable at these scales", first, last)
	}
}

func TestHitRatioA4Experiment(t *testing.T) {
	r, err := HitRatioA4(80)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	rn := col(t, r.Rows[0], 1)
	mb := col(t, r.Rows[1], 1)
	if mb <= rn {
		t.Errorf("MobV3 hit %.2f should exceed ResNet50 %.2f", mb, rn)
	}
}

func TestAblationAvgExperiment(t *testing.T) {
	r, err := AblationAvg(MobileNetV3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	avgLat := col(t, r.Rows[0], 1)
	interLat := col(t, r.Rows[1], 1)
	// §3.3: averaging must not lose to intersection.
	if avgLat > interLat*1.005 {
		t.Errorf("running average %.4f ms worse than intersection %.4f ms", avgLat, interLat)
	}
}

func TestFig9Experiment(t *testing.T) {
	r, err := Fig9(ResNet50)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatalf("only %d tiles", len(r.Rows))
	}
	// The first tile's fetch is never hidden; all later ones are on a
	// compute-bound conv layer (Fig. 9b's claim).
	if r.Rows[0][3] != "no" {
		t.Errorf("first tile marked hidden: %v", r.Rows[0])
	}
	for _, row := range r.Rows[1:] {
		if row[3] != "yes" {
			t.Errorf("later tile not hidden: %v", row)
		}
	}
	if len(r.Notes) < 2 || !strings.Contains(r.Notes[1], "saves") {
		t.Errorf("missing multi-query note: %v", r.Notes)
	}
}

func TestHeteroExperiment(t *testing.T) {
	r, err := Hetero(MobileNetV3, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows, want 2 fleets", len(r.Rows))
	}
	homo, mixed := r.Rows[0], r.Rows[1]
	// Acceptance criterion: identical seeded arrivals, measurable
	// p99/SLO difference between fleet compositions.
	if homo[2] == mixed[2] && homo[3] == mixed[3] {
		t.Errorf("homogeneous and mixed fleets indistinguishable: p99 %s vs %s, SLO %s vs %s",
			homo[2], mixed[2], homo[3], mixed[3])
	}
	for _, row := range r.Rows {
		if p99 := col(t, row, 2); p99 <= 0 {
			t.Errorf("%s: non-positive p99 %v", row[0], row)
		}
		if slo := col(t, row, 3); slo < 0 || slo > 100 {
			t.Errorf("%s: SLO %v outside [0, 100]", row[0], row)
		}
	}
	// At least one modeled cache switch across the two fleets, with its
	// cost accounted.
	switches := col(t, homo, 6) + col(t, mixed, 6)
	cost := col(t, homo, 7) + col(t, mixed, 7)
	if switches < 1 {
		t.Error("no fleet enacted a modeled cache switch")
	}
	if switches >= 1 && cost <= 0 {
		t.Errorf("%v switches but zero charged fill time", switches)
	}
}

func TestOverloadExperiment(t *testing.T) {
	r, err := Overload(MobileNetV3, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("%d rows, want 6 (3 rates x 2 systems)", len(r.Rows))
	}
	// At the highest overload factor, load-aware SUSHI must beat the
	// static top model on SLO and drops.
	stSLO, adSLO := col(t, r.Rows[4], 2), col(t, r.Rows[5], 2)
	stDrops, adDrops := col(t, r.Rows[4], 3), col(t, r.Rows[5], 3)
	if adSLO <= stSLO {
		t.Errorf("3x overload: load-aware SLO %.1f !> static %.1f", adSLO, stSLO)
	}
	if adDrops > stDrops {
		t.Errorf("3x overload: load-aware drops %.0f > static %.0f", adDrops, stDrops)
	}
	// Under light load (0.5x) the load-aware system meets nearly all
	// SLOs; the static top model has almost no headroom (its service
	// time is ~budget/1.1) so any queueing hurts it even here.
	if col(t, r.Rows[1], 2) < 80 {
		t.Errorf("light load: load-aware SLO too low: %v", r.Rows[1])
	}
	if col(t, r.Rows[0], 2) >= col(t, r.Rows[1], 2) {
		t.Errorf("light load: static should not beat load-aware: %v vs %v", r.Rows[0], r.Rows[1])
	}
}

func TestBatchSweepExperiment(t *testing.T) {
	for _, w := range []Workload{MobileNetV3, ResNet50} {
		r, err := BatchSweep(w, 160)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 4 {
			t.Fatalf("%s: %d rows, want 4 batch sizes", w, len(r.Rows))
		}
		// Acceptance criterion: at fixed offered load, goodput strictly
		// increases for every B > 1 over the unbatched B=1 row, and the
		// amortized weight fetch shows up as falling per-query energy.
		b1Goodput := col(t, r.Rows[0], 3)
		b1Energy := col(t, r.Rows[0], 8)
		for _, row := range r.Rows[1:] {
			if g := col(t, row, 3); g <= b1Goodput {
				t.Errorf("%s: B=%s goodput %.1f not above B=1 %.1f", w, row[0], g, b1Goodput)
			}
			if e := col(t, row, 8); e >= b1Energy {
				t.Errorf("%s: B=%s energy/query %.2f not below B=1 %.2f", w, row[0], e, b1Energy)
			}
			if avg := col(t, row, 2); avg <= 1 {
				t.Errorf("%s: B=%s average batch %.2f never exceeded 1", w, row[0], avg)
			}
		}
		// The machine-readable headline must match the table.
		if r.Metrics["goodput_qps"] <= r.Metrics["goodput_b1_qps"] {
			t.Errorf("%s: metrics claim no batching win: %+v", w, r.Metrics)
		}
		if r.Metrics["goodput_qps"] <= 0 || r.Metrics["p99_e2e_ms"] <= 0 {
			t.Errorf("%s: degenerate headline metrics %+v", w, r.Metrics)
		}
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
