package serving

import (
	"math"
	"testing"

	"sushi/internal/sched"
)

// addClassed folds one open-loop outcome for an SLO class: a drop, or
// a query served with the given E2E latency.
func addClassed(a *Accumulator, class string, e2e float64, met, dropped bool) {
	if dropped {
		a.AddDropped("", class, 0, e2e)
		return
	}
	a.AddOpenLoop(&Served{Query: sched.Query{Class: class}, Latency: e2e / 2, LatencyMet: met}, 0, e2e, 0, e2e)
}

// TestAccumulatorPerClass: classed outcomes land in per-class buckets
// (drops included), unclassed traffic allocates none, and Summary
// carries the sorted breakdown plus the Jain index.
func TestAccumulatorPerClass(t *testing.T) {
	var a Accumulator
	// gold: 2 served in SLO; batch: 1 served missing SLO + 1 drop;
	// one unclassed outcome that must not create a bucket.
	addClassed(&a, "gold", 5e-3, true, false)
	addClassed(&a, "gold", 6e-3, true, false)
	addClassed(&a, "batch", 50e-3, false, false)
	addClassed(&a, "batch", 0, false, true)
	addClassed(&a, "", 1e-3, true, false)

	s := a.Summary()
	if len(s.PerClass) != 2 {
		t.Fatalf("got %d class slices, want 2 (unclassed traffic must not bucket)", len(s.PerClass))
	}
	if s.PerClass[0].Class != "batch" || s.PerClass[1].Class != "gold" {
		t.Fatalf("classes not sorted: %q, %q", s.PerClass[0].Class, s.PerClass[1].Class)
	}
	b, g := s.PerClass[0], s.PerClass[1]
	if b.Queries != 2 || b.Dropped != 1 || b.E2ESLO != 0 {
		t.Errorf("batch slice wrong: queries=%d dropped=%d e2eslo=%g", b.Queries, b.Dropped, b.E2ESLO)
	}
	if g.Queries != 2 || g.Dropped != 0 || g.E2ESLO != 1 {
		t.Errorf("gold slice wrong: queries=%d dropped=%d e2eslo=%g", g.Queries, g.Dropped, g.E2ESLO)
	}
	// Jain over attainments (1, 0): (1+0)^2 / (2*(1+0)) = 0.5.
	if math.Abs(s.FairnessJain-0.5) > 1e-12 {
		t.Errorf("fairness %g, want 0.5", s.FairnessJain)
	}

	// Merge and snapshot must preserve the class buckets.
	var b2 Accumulator
	addClassed(&b2, "silver", 2e-3, true, false)
	a.Merge(b2.Snapshot())
	s = a.Summary()
	if len(s.PerClass) != 3 || s.PerClass[2].Class != "silver" {
		t.Fatalf("merge lost class buckets: %+v", s.PerClass)
	}
	// Jain over (1, 0, 1): 4 / (3*2) = 2/3.
	if math.Abs(s.FairnessJain-2.0/3.0) > 1e-12 {
		t.Errorf("fairness after merge %g, want %g", s.FairnessJain, 2.0/3.0)
	}
}

// TestSummarizePerClass: the slice-based Summarize agrees with the
// accumulator on class bucketing and fairness, and closed-loop classed
// streams judge fairness by the service-latency SLO.
func TestSummarizePerClass(t *testing.T) {
	rs := []Served{
		{Query: sched.Query{Class: "gold"}, Latency: 1e-3, LatencyMet: true},
		{Query: sched.Query{Class: "gold"}, Latency: 2e-3, LatencyMet: true},
		{Query: sched.Query{Class: "batch"}, Latency: 9e-3, LatencyMet: false},
		{Query: sched.Query{Class: "batch"}, Latency: 3e-3, LatencyMet: true},
		{Latency: 1e-3, LatencyMet: true}, // unclassed
	}
	s := Summarize(rs)
	if len(s.PerClass) != 2 {
		t.Fatalf("got %d class slices, want 2", len(s.PerClass))
	}
	if s.PerClass[0].Class != "batch" || s.PerClass[0].LatencySLO != 0.5 {
		t.Errorf("batch slice wrong: %+v", s.PerClass[0])
	}
	if s.PerClass[1].Class != "gold" || s.PerClass[1].LatencySLO != 1 {
		t.Errorf("gold slice wrong: %+v", s.PerClass[1])
	}
	// Closed-loop fairness over latency-SLO attainments (0.5, 1):
	// (1.5)^2 / (2 * 1.25) = 0.9.
	if math.Abs(s.FairnessJain-0.9) > 1e-12 {
		t.Errorf("fairness %g, want 0.9", s.FairnessJain)
	}

	// No classes: no slices, index 0 (undefined).
	plain := Summarize([]Served{{Latency: 1e-3}})
	if len(plain.PerClass) != 0 || plain.FairnessJain != 0 {
		t.Errorf("unclassed stream grew class artifacts: %+v", plain.PerClass)
	}

	// Degenerate all-zero attainment: equally starved reads as fair.
	if got := classFairness([]ClassSummary{{Class: "a"}, {Class: "b"}}); got != 1 {
		t.Errorf("all-zero fairness %g, want 1", got)
	}
	if got := classFairness(nil); got != 0 {
		t.Errorf("empty fairness %g, want 0", got)
	}
}
