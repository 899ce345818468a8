package serving

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactPercentile is the ground truth the reservoir approximates.
func exactPercentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, p)
}

// relClose reports |got-want| <= tol·want (absolute fallback near zero).
func relClose(got, want, tol float64) bool {
	if math.Abs(want) < 1e-12 {
		return math.Abs(got) < tol
	}
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// feed folds each latency into a fresh accumulator and returns it with
// the raw stream.
func feed(lats []float64) *Accumulator {
	var a Accumulator
	for _, l := range lats {
		a.add(&Served{Latency: l})
	}
	return &a
}

// uniformLats draws n latencies uniform in [lo, hi) — deterministic.
func uniformLats(n int, lo, hi float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + rng.Float64()*(hi-lo)
	}
	return out
}

// bimodalLats mixes a fast mode around fastMS and a slow mode around
// slowMS with the given slow fraction — the shape that breaks naive
// percentile sketches.
func bimodalLats(n int, fast, slow, slowFrac float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		if rng.Float64() < slowFrac {
			out[i] = slow * (0.9 + 0.2*rng.Float64())
		} else {
			out[i] = fast * (0.9 + 0.2*rng.Float64())
		}
	}
	return out
}

// TestReservoirPercentileToleranceUniform pins the bounded reservoir's
// p50/p95/p99 against exact percentiles on a uniform distribution five
// times the cap.
func TestReservoirPercentileToleranceUniform(t *testing.T) {
	lats := uniformLats(5*maxLatencySamples, 1e-3, 101e-3, 11)
	sum := feed(lats).Summary()
	for _, c := range []struct {
		name   string
		got    float64
		p, tol float64
	}{
		{"p50", sum.P50Latency, 0.50, 0.05},
		{"p95", sum.P95Latency, 0.95, 0.05},
		{"p99", sum.P99Latency, 0.99, 0.05},
	} {
		want := exactPercentile(lats, c.p)
		if !relClose(c.got, want, c.tol) {
			t.Errorf("uniform %s: reservoir %.4f vs exact %.4f (tol %.0f%%)",
				c.name, c.got, want, c.tol*100)
		}
	}
}

// TestReservoirPercentileToleranceBimodal: with 10% of traffic 20x
// slower, the sampled p50 must stay in the fast mode and p95/p99 in the
// slow mode.
func TestReservoirPercentileToleranceBimodal(t *testing.T) {
	lats := bimodalLats(5*maxLatencySamples, 2e-3, 40e-3, 0.10, 13)
	sum := feed(lats).Summary()
	for _, c := range []struct {
		name   string
		got    float64
		p, tol float64
	}{
		{"p50", sum.P50Latency, 0.50, 0.10},
		{"p95", sum.P95Latency, 0.95, 0.10},
		{"p99", sum.P99Latency, 0.99, 0.10},
	} {
		want := exactPercentile(lats, c.p)
		if !relClose(c.got, want, c.tol) {
			t.Errorf("bimodal %s: reservoir %.4f vs exact %.4f (tol %.0f%%)",
				c.name, c.got, want, c.tol*100)
		}
	}
	if sum.P50Latency > 10e-3 {
		t.Errorf("p50 %.1f ms left the fast mode", sum.P50Latency*1e3)
	}
	if sum.P99Latency < 30e-3 {
		t.Errorf("p99 %.1f ms missed the slow mode", sum.P99Latency*1e3)
	}
}

// TestMergedReservoirPercentileTolerance merges two sampled reservoirs
// with a 4:1 traffic imbalance and different distributions, and checks
// the traffic-weighted merge against exact percentiles of the combined
// stream.
func TestMergedReservoirPercentileTolerance(t *testing.T) {
	fast := uniformLats(4*maxLatencySamples, 1e-3, 5e-3, 17)
	slow := uniformLats(maxLatencySamples+500, 20e-3, 40e-3, 19)
	m := feed(fast).Snapshot()
	m.Merge(feed(slow))
	sum := m.Summary()
	combined := append(append([]float64(nil), fast...), slow...)
	// The merged reservoir subsamples both sides; p50 sits mid-range
	// where the density is flat, so allow a wider band there.
	for _, c := range []struct {
		name   string
		got    float64
		p, tol float64
	}{
		{"p50", sum.P50Latency, 0.50, 0.20},
		{"p95", sum.P95Latency, 0.95, 0.10},
		{"p99", sum.P99Latency, 0.99, 0.10},
	} {
		want := exactPercentile(combined, c.p)
		if !relClose(c.got, want, c.tol) {
			t.Errorf("merged %s: reservoir %.4f vs exact %.4f (tol %.0f%%)",
				c.name, c.got, want, c.tol*100)
		}
	}
	if sum.Queries != len(combined) {
		t.Fatalf("merged %d queries, want %d", sum.Queries, len(combined))
	}
}

// TestAddTimedAggregates pins the open-loop fold (AddOpenLoop and
// AddDropped, the engine's two calls): drops count against SLO and
// goodput, averages and E2E percentiles come from served queries only,
// and merge propagates the span.
func TestAddTimedAggregates(t *testing.T) {
	var a, b Accumulator
	// Replica a: two served (one in budget), one dropped.
	a.AddOpenLoop(&Served{Latency: 2e-3, Accuracy: 80, LatencyMet: true}, 0, 2e-3, 0, 2e-3)
	a.AddOpenLoop(&Served{Latency: 2e-3, Accuracy: 70}, 1e-3, 7e-3, 4e-3, 6e-3)
	a.AddDropped("", "", 2e-3, 9e-3)
	// Replica b: one served in budget, later finish.
	b.AddOpenLoop(&Served{Latency: 3e-3, Accuracy: 75, LatencyMet: true}, 4e-3, 10e-3, 0, 6e-3)
	m := a.Snapshot()
	m.Merge(&b)
	sum := m.Summary()
	if sum.Queries != 4 || sum.Dropped != 1 {
		t.Fatalf("counts %+v", sum)
	}
	if want := 2.0 / 4; sum.E2ESLO != want {
		t.Errorf("E2ESLO %g, want %g (drops are misses)", sum.E2ESLO, want)
	}
	if !relClose(sum.AvgAccuracy, 75, 1e-9) {
		t.Errorf("avg accuracy %g over served only, want 75", sum.AvgAccuracy)
	}
	if !relClose(sum.AvgE2E, (2e-3+6e-3+6e-3)/3, 1e-9) {
		t.Errorf("avg E2E %g", sum.AvgE2E)
	}
	if !relClose(sum.AvgQueueDelay, 4e-3/3, 1e-9) {
		t.Errorf("avg queue delay %g over served only, want %g", sum.AvgQueueDelay, 4e-3/3)
	}
	// Span 0 → 10 ms, 2 SLO-met completions → 200 goodput.
	if !relClose(sum.Goodput, 200, 1e-9) {
		t.Errorf("goodput %g, want 200", sum.Goodput)
	}
	if sum.P99E2E != 6e-3 {
		t.Errorf("P99 E2E %g from served queries, want 6e-3", sum.P99E2E)
	}
	// An empty accumulator reports nothing.
	var c Accumulator
	if s := c.Summary(); s.Queries != 0 || s.E2ESLO != 0 {
		t.Errorf("empty summary %+v", s)
	}
	// A closed-loop accumulator reports no open-loop aggregates.
	c.add(&Served{Latency: 1e-3, LatencyMet: true})
	if s := c.Summary(); s.E2ESLO != 0 || s.Goodput != 0 || s.P99E2E != 0 {
		t.Errorf("closed-loop summary leaked open-loop fields: %+v", s)
	}
}
