package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("single median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if got := medianOf([]int{4, 1, 3, 2}, func(v int) float64 { return float64(v) * 100 }); !near(got, 250) {
		t.Errorf("medianOf = %v, want 250", got)
	}
}

// The quiet decile sits on the undisturbed side of a run's samples and
// ignores how slow the disturbed ones were.
func TestQuietDecile(t *testing.T) {
	calm := []float64{10, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9, 11}
	noisy := append([]float64(nil), calm...)
	for i := 3; i < len(noisy); i++ {
		noisy[i] *= 1.8 // a neighbour slowed most of the run
	}
	if a, b := quietLow(calm), quietLow(noisy); !near(a, 10.1) || !near(b, 10.1) {
		t.Errorf("quietLow = %v calm, %v disturbed, want 10.1 for both", a, b)
	}
	if got := quietHigh(calm); !near(got, 10.9) {
		t.Errorf("quietHigh = %v, want 10.9", got)
	}
	if got := quietLow([]float64{7}); got != 7 {
		t.Errorf("quietLow of one sample = %v", got)
	}
}

// A round is cut at its CPU readings: every request lands in the slice
// it completed in, and the stub the round ends on is left out.
func TestLoadSlices(t *testing.T) {
	ms := func(v float64) int64 { return int64(v * 1e6) }
	l := loadResult{
		// Completion times out of order, as the callers' parts are appended.
		done:      []int64{ms(600), ms(100), ms(400), ms(900), ms(1050)},
		latencies: []int64{3000, 1000, 2000, 4000, 9000},
		ticks: []cpuTick{
			{at: 0, cpu: 0},
			{at: sliceDur, cpu: 10 * time.Millisecond},
			{at: 2 * sliceDur, cpu: 40 * time.Millisecond},
			{at: 2*sliceDur + sliceDur/10, cpu: 50 * time.Millisecond},
		},
	}
	got := l.slices(2)
	if len(got) != 2 {
		t.Fatalf("%d slices, want 2 (the stub is dropped): %+v", len(got), got)
	}
	// First slice: the requests done at 100 and 400 ms, two queries each.
	if s := got[0]; !near(s.queriesPerS, 4/sliceDur.Seconds()) || !near(s.p50us, 1.5) || !near(s.cpuUSPerQuery, 2500) {
		t.Errorf("first slice = %+v", s)
	}
	if s := got[1]; !near(s.p50us, 3.5) || !near(s.cpuUSPerQuery, 7500) {
		t.Errorf("second slice = %+v", s)
	}
}

// The quartiles must be Python's statistics.quantiles(xs, n=4): the
// benchmark contract computes its spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{10, 20, 30}, 10, 30},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; python says %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{4}); got != 0 {
		t.Errorf("spread of one sample = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// handler 8000 > cluster 3000 > replica 2500 > system 2000 > sched 900
	self, clamped := selfTimes([]float64{8000, 3000, 2500, 2000, 900})
	want := []float64{5000, 500, 500, 1100, 900}
	sum := 0.0
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %v, want %v", i, self[i], want[i])
		}
		sum += self[i]
	}
	if clamped != 0 || sum != 8000 {
		t.Errorf("self times sum to %v (clamped %v), want the outermost level 8000", sum, clamped)
	}
	// A noisy inner level slower than its parent never goes negative; the
	// overshoot is reported, not hidden.
	self, clamped = selfTimes([]float64{1000, 1040, 300})
	if self[0] != 0 || self[1] != 740 || self[2] != 300 || clamped != 40 {
		t.Errorf("noisy levels: self %v clamped %v", self, clamped)
	}
	for _, v := range self {
		if v < 0 {
			t.Errorf("negative self time %v", v)
		}
	}
}
