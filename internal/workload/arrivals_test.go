package workload

import (
	"math"
	"testing"
)

// checkStream asserts the universal arrival-process contract: exactly n
// non-negative, non-decreasing instants.
func checkStream(t *testing.T, arr []float64, n int) {
	t.Helper()
	if len(arr) != n {
		t.Fatalf("len %d, want %d", len(arr), n)
	}
	prev := 0.0
	for i, a := range arr {
		if math.IsNaN(a) || a < 0 {
			t.Fatalf("arrival %d invalid: %g", i, a)
		}
		if a < prev {
			t.Fatalf("arrival %d decreases: %g after %g", i, a, prev)
		}
		prev = a
	}
}

// checkDeterministic asserts same seed ⇒ identical stream and a
// different seed ⇒ a different one.
func checkDeterministic(t *testing.T, p ArrivalProcess, n int) {
	t.Helper()
	a, err := p.Times(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Times(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: same seed differs at %d", p.Name(), i)
		}
	}
	if _, isTrace := p.(*TraceV2); isTrace {
		return // traces ignore the seed by design
	}
	c, err := p.Times(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Errorf("%s: different seeds produced identical streams", p.Name())
	}
}

func TestPoissonProcess(t *testing.T) {
	p := Poisson{Rate: 100}
	arr, err := p.Times(2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, arr, 2000)
	checkDeterministic(t, p, 2000)
	// Empirical rate within 10% of nominal.
	rate := float64(len(arr)) / arr[len(arr)-1]
	if rate < 90 || rate > 110 {
		t.Errorf("empirical rate %.1f, want ~100", rate)
	}
	if _, err := p.Times(0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := (Poisson{Rate: 0}).Times(10, 1); err == nil {
		t.Error("rate=0 accepted")
	}
	if _, err := (Poisson{Rate: math.NaN()}).Times(10, 1); err == nil {
		t.Error("NaN rate accepted")
	}
}

func TestOnOffProcess(t *testing.T) {
	p := OnOff{OnRate: 500, OffRate: 20, MeanOn: 0.2, MeanOff: 0.8}
	arr, err := p.Times(3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, arr, 3000)
	checkDeterministic(t, p, 3000)
	// Long-run mean rate: (0.2*500 + 0.8*20) / 1.0 = 116 qps. Generous
	// 30% tolerance — state sojourns correlate arrivals.
	rate := float64(len(arr)) / arr[len(arr)-1]
	if rate < 116*0.7 || rate > 116*1.3 {
		t.Errorf("empirical rate %.1f, want ~116", rate)
	}
	// Silent off-state must still terminate and leave gaps.
	gapped := OnOff{OnRate: 1000, OffRate: 0, MeanOn: 0.05, MeanOff: 0.5}
	arr, err = gapped.Times(500, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, arr, 500)
	maxGap := 0.0
	for i := 1; i < len(arr); i++ {
		if g := arr[i] - arr[i-1]; g > maxGap {
			maxGap = g
		}
	}
	if maxGap < 0.1 {
		t.Errorf("fully silent off state left max gap %.3f s, want visible quiet periods", maxGap)
	}
	for _, bad := range []OnOff{
		{OnRate: 0, OffRate: 1, MeanOn: 1, MeanOff: 1},
		{OnRate: 10, OffRate: -1, MeanOn: 1, MeanOff: 1},
		{OnRate: 10, OffRate: 1, MeanOn: 0, MeanOff: 1},
		{OnRate: 10, OffRate: 1, MeanOn: 1, MeanOff: 0},
		{OnRate: 1e-300, OffRate: 0, MeanOn: 1, MeanOff: 1}, // a draw would never land
	} {
		if _, err := bad.Times(10, 1); err == nil {
			t.Errorf("invalid %+v accepted", bad)
		}
	}
}

func TestDiurnalProcess(t *testing.T) {
	p := Diurnal{BaseRate: 200, Amplitude: 0.8, Period: 2}
	arr, err := p.Times(4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, arr, 4000)
	checkDeterministic(t, p, 4000)
	// Over whole periods the sinusoid averages out: empirical mean rate
	// within 15% of BaseRate.
	rate := float64(len(arr)) / arr[len(arr)-1]
	if rate < 200*0.85 || rate > 200*1.15 {
		t.Errorf("empirical mean rate %.1f, want ~200", rate)
	}
	// The peak half-period must carry more arrivals than the trough
	// half-period (count arrivals by phase).
	peak, trough := 0, 0
	for _, a := range arr {
		phase := math.Mod(a, p.Period) / p.Period
		if phase < 0.5 {
			peak++ // sin positive: above-mean rate
		} else {
			trough++
		}
	}
	if peak <= trough {
		t.Errorf("diurnal swing invisible: peak %d <= trough %d", peak, trough)
	}
	for _, bad := range []Diurnal{
		{BaseRate: 0, Amplitude: 0.5, Period: 1},
		{BaseRate: 10, Amplitude: -0.1, Period: 1},
		{BaseRate: 10, Amplitude: 1.1, Period: 1},
		{BaseRate: 10, Amplitude: 0.5, Period: 0},
		{BaseRate: 1e308, Amplitude: 1, Period: 1}, // peak rate overflows
	} {
		if _, err := bad.Times(10, 1); err == nil {
			t.Errorf("invalid %+v accepted", bad)
		}
	}
}

func TestTraceProcess(t *testing.T) {
	tr := &TraceV2{Records: []TraceV2Record{
		{Arrival: 0, Cohort: -1, MinAccuracy: 70, MaxLatency: 5e-3},
		{Arrival: 0.01, Cohort: -1, MinAccuracy: 75, MaxLatency: 4e-3},
		{Arrival: 0.02, Cohort: -1, MinAccuracy: 80, MaxLatency: 3e-3},
	}}
	arr, err := tr.Times(3, 99)
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, arr, 3)
	checkDeterministic(t, tr, 3)
	qs, err := tr.Queries(2)
	if err != nil {
		t.Fatal(err)
	}
	if qs[1].MinAccuracy != 75 || qs[1].MaxLatency != 4e-3 || qs[1].ID != 1 {
		t.Errorf("trace query mismatch: %+v", qs[1])
	}
	if _, err := tr.Times(4, 1); err == nil {
		t.Error("overlong request accepted")
	}
	if _, err := (&TraceV2{}).Times(1, 1); err == nil {
		t.Error("empty trace accepted")
	}
	bad := &TraceV2{Records: []TraceV2Record{{Arrival: 1, Cohort: -1}, {Arrival: 0.5, Cohort: -1}}}
	if _, err := bad.Times(2, 1); err == nil {
		t.Error("out-of-order trace accepted")
	}
	neg := &TraceV2{Records: []TraceV2Record{{Arrival: -1, Cohort: -1}}}
	if _, err := neg.Times(1, 1); err == nil {
		t.Error("negative arrival accepted")
	}
}

// TestBurstyDeterminismAndBounds pins the generator contract for the
// constraint-stream generators too: same seed ⇒ identical stream, and
// every sample stays inside its configured range.
func TestBurstyDeterminismAndBounds(t *testing.T) {
	acc := Range{Lo: 70, Hi: 80}
	lat := Range{Lo: 2e-3, Hi: 8e-3}
	const factor = 0.4
	a, err := Bursty(500, acc, lat, 0.1, factor, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bursty(500, acc, lat, 0.1, factor, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at query %d", i)
		}
		if a[i].MinAccuracy < acc.Lo || a[i].MinAccuracy > acc.Hi {
			t.Fatalf("query %d accuracy %g outside [%g, %g]", i, a[i].MinAccuracy, acc.Lo, acc.Hi)
		}
		// During a burst the budget shrinks by factor; it may never fall
		// below Lo*factor nor exceed Hi.
		if a[i].MaxLatency < lat.Lo*factor-1e-12 || a[i].MaxLatency > lat.Hi+1e-12 {
			t.Fatalf("query %d latency %g outside [%g, %g]", i, a[i].MaxLatency, lat.Lo*factor, lat.Hi)
		}
	}
}

func TestDriftingDeterminismAndBounds(t *testing.T) {
	accS, accE := Range{Lo: 78, Hi: 80}, Range{Lo: 70, Hi: 72}
	latS, latE := Range{Lo: 2e-3, Hi: 3e-3}, Range{Lo: 6e-3, Hi: 9e-3}
	a, err := Drifting(400, accS, accE, latS, latE, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Drifting(400, accS, accE, latS, latE, 5)
	if err != nil {
		t.Fatal(err)
	}
	accLo, accHi := math.Min(accS.Lo, accE.Lo), math.Max(accS.Hi, accE.Hi)
	latLo, latHi := math.Min(latS.Lo, latE.Lo), math.Max(latS.Hi, latE.Hi)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at query %d", i)
		}
		if a[i].MinAccuracy < accLo || a[i].MinAccuracy > accHi {
			t.Fatalf("query %d accuracy %g outside [%g, %g]", i, a[i].MinAccuracy, accLo, accHi)
		}
		if a[i].MaxLatency < latLo || a[i].MaxLatency > latHi {
			t.Fatalf("query %d latency %g outside [%g, %g]", i, a[i].MaxLatency, latLo, latHi)
		}
	}
}
