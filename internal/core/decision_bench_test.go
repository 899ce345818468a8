package core

import "testing"

// BenchmarkDecisionHot times the per-query decision hot path (router
// scoring + SushiSched selection + Q-periodic cache updates) through
// the same loop the decisionhot experiment runs. The warm-up call
// populates the process-wide frontier and table-build memos so the
// timed region measures decisions, not setup.
func BenchmarkDecisionHot(b *testing.B) {
	if _, err := decisionHotLoop(MobileNetV3, 64); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := decisionHotLoop(MobileNetV3, b.N); err != nil {
		b.Fatal(err)
	}
}

// TestDecisionHotDeterministic pins the experiment's headline metrics
// across runs and across worker counts (the loop itself is sequential;
// GOMAXPROCS must not leak into it).
func TestDecisionHotDeterministic(t *testing.T) {
	a, err := DecisionHot(MobileNetV3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	var b *Result
	sequentially(func() { b, err = DecisionHot(MobileNetV3, 2000) })
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("decisionhot not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	if a.Metrics["decisions"] != 2000 {
		t.Fatalf("decisions = %v, want 2000", a.Metrics["decisions"])
	}
	if a.Metrics["distinct_rows"] < 2 {
		t.Fatalf("distinct_rows = %v, want >= 2 (budget spread should hit multiple SubNets)", a.Metrics["distinct_rows"])
	}
}
