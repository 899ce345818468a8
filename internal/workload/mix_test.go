package workload

import (
	"math"
	"strings"
	"testing"
)

// TestMixLabeledDeterministicSortedComplete: the superposed stream is
// deterministic per seed, time-sorted, exactly n long, and every label
// names a component.
func TestMixLabeledDeterministicSortedComplete(t *testing.T) {
	m := Mix{Components: []MixComponent{
		{Model: "resnet50", Process: OnOff{OnRate: 120, OffRate: 10, MeanOn: 0.5, MeanOff: 0.5}},
		{Model: "mobilenetv3", Process: Diurnal{BaseRate: 300, Amplitude: 0.8, Period: 2, Phase: math.Pi}},
	}}
	const n = 500
	ts1, ls1, err := m.Labeled(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	ts2, ls2, err := m.Labeled(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts1) != n || len(ls1) != n {
		t.Fatalf("got %d times, %d labels, want %d", len(ts1), len(ls1), n)
	}
	counts := map[string]int{}
	for i := range ts1 {
		if ts1[i] != ts2[i] || ls1[i] != ls2[i] {
			t.Fatalf("arrival %d not deterministic: (%g,%s) vs (%g,%s)", i, ts1[i], ls1[i], ts2[i], ls2[i])
		}
		if i > 0 && ts1[i] < ts1[i-1] {
			t.Fatalf("arrival %d out of order: %g < %g", i, ts1[i], ts1[i-1])
		}
		if ls1[i] != "resnet50" && ls1[i] != "mobilenetv3" {
			t.Fatalf("arrival %d has unknown label %q", i, ls1[i])
		}
		counts[ls1[i]]++
	}
	// Superposition: both components contribute (the faster one more).
	if counts["resnet50"] == 0 || counts["mobilenetv3"] == 0 {
		t.Fatalf("a component contributed nothing: %v", counts)
	}
	// Times (the ArrivalProcess face) agrees with Labeled.
	ts3, err := m.Times(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ts3 {
		if ts3[i] != ts1[i] {
			t.Fatalf("Times diverges from Labeled at %d", i)
		}
	}
}

// TestMixComponentSeedsIndependent: different seeds give different
// streams, and the per-component derived seeds differ from each other
// (two identical processes in one mix don't duplicate arrivals).
func TestMixComponentSeedsIndependent(t *testing.T) {
	p := Poisson{Rate: 100}
	m := Mix{Components: []MixComponent{
		{Model: "a", Process: p},
		{Model: "b", Process: p},
	}}
	ts, ls, err := m.Labeled(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Identical processes with identical seeds would interleave as exact
	// duplicate pairs; derived per-component seeds must prevent that.
	dups := 0
	for i := 1; i < len(ts); i++ {
		if ts[i] == ts[i-1] && ls[i] != ls[i-1] {
			dups++
		}
	}
	if dups > 0 {
		t.Fatalf("%d duplicate cross-component arrivals: component seeds not decorrelated", dups)
	}
	ts2, _, err := m.Labeled(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range ts {
		if ts[i] == ts2[i] {
			same++
		}
	}
	if same == len(ts) {
		t.Fatal("different mix seeds produced identical streams")
	}
}

// TestMixValidation: empty mixes, nil processes and bad counts reject.
func TestMixValidation(t *testing.T) {
	if _, _, err := (Mix{}).Labeled(10, 1); err == nil {
		t.Error("empty mix accepted")
	}
	if _, _, err := (Mix{Components: []MixComponent{{Model: "x"}}}).Labeled(10, 1); err == nil {
		t.Error("nil component process accepted")
	}
	m := Mix{Components: []MixComponent{{Model: "a", Process: Poisson{Rate: 1}}}}
	if _, _, err := m.Labeled(0, 1); err == nil {
		t.Error("non-positive count accepted")
	}
	if _, _, err := (Mix{Components: []MixComponent{{Model: "a", Process: Poisson{}}}}).Labeled(5, 1); err == nil {
		t.Error("invalid component process accepted")
	}
}

// TestMixShortComponent: a finite component (a 3-record trace) that
// runs out early only stops contributing; the mix fails only once the
// union of its components runs dry.
func TestMixShortComponent(t *testing.T) {
	trace := &TraceV2{Records: []TraceV2Record{
		{Arrival: 0, Cohort: -1},
		{Arrival: 0.001, Cohort: -1},
		{Arrival: 0.002, Cohort: -1},
	}}
	m := Mix{Components: []MixComponent{
		{Model: "trace", Process: trace},
		{Model: "poisson", Process: Poisson{Rate: 100}},
	}}
	ts, ls, err := m.Labeled(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, ts, 10)
	fromTrace := 0
	for _, l := range ls {
		if l == "trace" {
			fromTrace++
		}
	}
	if fromTrace != 3 {
		t.Errorf("%d of 10 arrivals from the 3-record trace, want 3", fromTrace)
	}
	dry := Mix{Components: []MixComponent{
		{Model: "a", Process: trace},
		{Model: "b", Process: trace},
	}}
	_, _, err = dry.Labeled(10, 1)
	if err == nil || !strings.Contains(err.Error(), "exhausted after 6 of 10") {
		t.Errorf("two 3-record traces asked for 10 arrivals: err %v, want the exhaustion error", err)
	}
}

// TestOnOffStartOff: the quiet-start process is deterministic, differs
// from the burst-start process, and starts measurably later on average
// (its first arrivals wait out an off-sojourn at the low rate).
func TestOnOffStartOff(t *testing.T) {
	on := OnOff{OnRate: 200, OffRate: 5, MeanOn: 0.5, MeanOff: 0.5}
	off := on
	off.StartOff = true
	a, err := on.Times(50, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := off.Times(50, 9)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := off.Times(50, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if b[i] != b2[i] {
			t.Fatalf("StartOff stream not deterministic at %d", i)
		}
	}
	if a[0] == b[0] {
		t.Error("StartOff did not change the stream")
	}
	if b[0] < a[0] {
		t.Errorf("quiet-start stream begins earlier (%g) than burst-start (%g)", b[0], a[0])
	}
}

// TestDiurnalPhaseAntiCorrelated: two anti-phase diurnal streams are
// deterministic and genuinely phase-shifted — the first stream front-
// loads arrivals (phase 0 starts rising), the anti-phase stream
// back-loads them.
func TestDiurnalPhaseAntiCorrelated(t *testing.T) {
	base := Diurnal{BaseRate: 100, Amplitude: 1, Period: 2}
	anti := base
	anti.Phase = math.Pi
	a, err := base.Times(200, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := anti.Times(200, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals inside the first half-period: peak phase for `base`,
	// trough for `anti`.
	early := func(ts []float64) int {
		n := 0
		for _, x := range ts {
			if x < 1 {
				n++
			}
		}
		return n
	}
	if ea, eb := early(a), early(b); ea <= eb {
		t.Errorf("phase-0 stream has %d early arrivals, anti-phase %d — expected front-loading", ea, eb)
	}
	if _, err := (Diurnal{BaseRate: 1, Amplitude: 0.5, Period: 1, Phase: math.NaN()}).Times(5, 1); err == nil {
		t.Error("NaN phase accepted")
	}
}
