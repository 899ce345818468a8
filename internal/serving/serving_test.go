package serving

import (
	"math"
	"testing"

	"sushi/internal/accel"
	"sushi/internal/sched"
	"sushi/internal/supernet"
	"sushi/internal/workload"
)

// fixtures caches the expensive supernet/frontier construction per run.
func fixtures(t testing.TB, kind supernet.Kind) (*supernet.SuperNet, []*supernet.SubNet) {
	t.Helper()
	var s *supernet.SuperNet
	if kind == supernet.ResNet50 {
		s = supernet.NewOFAResNet50()
	} else {
		s = supernet.NewOFAMobileNetV3()
	}
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	return s, fr
}

func newSystem(t *testing.T, kind supernet.Kind, mode Mode, policy sched.Policy) *System {
	t.Helper()
	s, fr := fixtures(t, kind)
	sys, err := New(s, fr, Options{
		Accel:      accel.ZCU104(),
		Policy:     policy,
		Q:          4,
		Mode:       mode,
		Candidates: 12,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// latRange spans the frontier's latencies on the system so constraints
// are meaningfully satisfiable.
func latRange(sys *System) workload.Range {
	tab := sys.Table()
	lo := tab.Lookup(0, 0)
	hi := tab.Lookup(tab.Rows()-1, 0)
	return workload.Range{Lo: lo * 0.9, Hi: hi * 1.1}
}

func accRange(sys *System) workload.Range {
	tab := sys.Table()
	return workload.Range{
		Lo: tab.SubNets[0].Accuracy - 0.2,
		Hi: tab.SubNets[tab.Rows()-1].Accuracy,
	}
}

func TestModeString(t *testing.T) {
	if Full.String() != "Sushi" || StateUnaware.String() != "Sushi w/o Sched" || NoPB.String() != "No-Sushi" {
		t.Error("mode strings wrong")
	}
}

func TestNewValidation(t *testing.T) {
	s, fr := fixtures(t, supernet.MobileNetV3)
	if _, err := New(s, nil, Options{Accel: accel.ZCU104()}); err == nil {
		t.Error("empty frontier accepted")
	}
	if _, err := New(s, fr, Options{Accel: accel.ZCU104(), Mode: Mode(9)}); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := New(s, fr, Options{Accel: accel.ZCU104(), StaticColumn: 99}); err == nil {
		t.Error("out-of-range static column accepted")
	}
}

func TestStrictLatencyServesUnderConstraint(t *testing.T) {
	// Fig. 15a/c: under STRICT_LATENCY, served latency must sit at or
	// below the constraint whenever the constraint is feasible.
	sys := newSystem(t, supernet.MobileNetV3, Full, sched.StrictLatency)
	qs, err := workload.Uniform(120, accRange(sys), latRange(sys), 42)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sys.ServeAll(qs)
	if err != nil {
		t.Fatal(err)
	}
	feasible, met := 0, 0
	for _, r := range rs {
		if !r.Feasible {
			continue
		}
		feasible++
		if r.Latency <= r.Query.MaxLatency+1e-12 {
			met++
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible queries in stream")
	}
	if met != feasible {
		t.Errorf("served latency exceeded feasible constraint in %d/%d cases", feasible-met, feasible)
	}
}

func TestStrictAccuracyServesAboveConstraint(t *testing.T) {
	// Fig. 15b/d: under STRICT_ACCURACY, served accuracy must meet the
	// constraint whenever feasible.
	sys := newSystem(t, supernet.ResNet50, Full, sched.StrictAccuracy)
	qs, err := workload.Uniform(120, accRange(sys), latRange(sys), 7)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sys.ServeAll(qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Feasible && !r.AccuracyMet {
			t.Errorf("query %d: served %.2f%% < constraint %.2f%%", r.Query.ID, r.Accuracy, r.Query.MinAccuracy)
		}
	}
}

func TestFig16Ordering(t *testing.T) {
	// Fig. 16: at equal served accuracy, Full SUSHI must beat
	// StateUnaware, which must beat NoPB, in average latency. The served
	// accuracy stream is identical across modes under STRICT_ACCURACY
	// with the same constraints (accuracy is cache-independent), so the
	// latency comparison is apples-to-apples.
	for _, kind := range []supernet.Kind{supernet.ResNet50, supernet.MobileNetV3} {
		s, fr := fixtures(t, kind)
		var sums [3]Summary
		var accs [3]float64
		for mi, mode := range []Mode{Full, StateUnaware, NoPB} {
			sys, err := New(s, fr, Options{
				Accel:        accel.ZCU104(),
				Policy:       sched.StrictAccuracy,
				Q:            4,
				Mode:         mode,
				Candidates:   16,
				StaticColumn: -1, // blind pick, per "state-unaware caching"
				Seed:         1,
			})
			if err != nil {
				t.Fatal(err)
			}
			qs, err := workload.Uniform(150, accRange(sys), latRange(sys), 99)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := sys.ServeAll(qs)
			if err != nil {
				t.Fatal(err)
			}
			sums[mi] = Summarize(rs)
			accs[mi] = sums[mi].AvgAccuracy
		}
		if math.Abs(accs[0]-accs[2]) > 1e-9 {
			t.Fatalf("%v: served accuracy differs across modes (%.4f vs %.4f) — comparison invalid", kind, accs[0], accs[2])
		}
		full, unaware, nopb := sums[0].AvgLatency, sums[1].AvgLatency, sums[2].AvgLatency
		t.Logf("%v: Sushi %.3f ms | w/o Sched %.3f ms | No-Sushi %.3f ms (save vs No-Sushi %.1f%%)",
			kind, full*1e3, unaware*1e3, nopb*1e3, (1-full/nopb)*100)
		// On a stationary uniform mix the adaptive scheduler's edge over
		// a static cache is small (the paper's own Table 5 reports 1-9%);
		// allow near-ties but never a real regression.
		if full > unaware*1.005 {
			t.Errorf("%v: Full (%.4g) regresses vs StateUnaware (%.4g)", kind, full, unaware)
		}
		if !(unaware < nopb) {
			t.Errorf("%v: StateUnaware (%.4g) !< NoPB (%.4g)", kind, unaware, nopb)
		}
		if !(full < nopb) {
			t.Errorf("%v: Full (%.4g) !< NoPB (%.4g)", kind, full, nopb)
		}
		// PB-driven latency reduction; the paper reports 21-25% on its
		// simulator — our byte-accounting model lands lower but must be
		// clearly positive.
		save := 1 - full/nopb
		if save < 0.003 || save > 0.5 {
			t.Errorf("%v: Sushi-vs-NoSushi saving %.2f%% outside (0.3%%, 50%%)", kind, save*100)
		}
	}
}

func TestHitRatioBand(t *testing.T) {
	// Appendix A.4: hit ratio ~66% (ResNet50), ~78% (MobV3); MobV3's is
	// higher because the PB holds a larger fraction of its SubNets.
	ratios := map[supernet.Kind]float64{}
	for _, kind := range []supernet.Kind{supernet.ResNet50, supernet.MobileNetV3} {
		sys := newSystem(t, kind, Full, sched.StrictAccuracy)
		qs, err := workload.Uniform(100, accRange(sys), latRange(sys), 5)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := sys.ServeAll(qs)
		if err != nil {
			t.Fatal(err)
		}
		sum := Summarize(rs)
		ratios[kind] = sum.AvgHitRatio
		if sum.AvgHitRatio <= 0.05 || sum.AvgHitRatio > 1 {
			t.Errorf("%v: hit ratio %.2f outside (0.05, 1]", kind, sum.AvgHitRatio)
		}
	}
	if ratios[supernet.MobileNetV3] <= ratios[supernet.ResNet50] {
		t.Errorf("MobV3 hit ratio %.2f should exceed ResNet50's %.2f (A.4)",
			ratios[supernet.MobileNetV3], ratios[supernet.ResNet50])
	}
	t.Logf("hit ratios: RN50 %.2f, MobV3 %.2f (paper: 0.66, 0.78)",
		ratios[supernet.ResNet50], ratios[supernet.MobileNetV3])
}

func TestCacheSwapsHappenEveryQ(t *testing.T) {
	sys := newSystem(t, supernet.MobileNetV3, Full, sched.StrictLatency)
	qs, err := workload.Uniform(40, accRange(sys), latRange(sys), 3)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sys.ServeAll(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.CacheSwapped && (i+1)%4 != 0 {
			t.Errorf("swap at query %d, not a Q=4 boundary", i+1)
		}
	}
	swaps, bytes := sys.Simulator().Swaps()
	if swaps == 0 {
		t.Log("no swaps occurred (stationary workload); acceptable but unusual")
	}
	if swaps > 0 && bytes <= 0 {
		t.Error("swaps recorded but no bytes moved")
	}
}

func TestNoPBNeverHits(t *testing.T) {
	sys := newSystem(t, supernet.MobileNetV3, NoPB, sched.StrictLatency)
	qs, err := workload.Uniform(30, accRange(sys), latRange(sys), 4)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sys.ServeAll(qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.HitBytes != 0 || r.HitRatio != 0 || r.CacheSwapped {
			t.Fatalf("NoPB system produced cache activity: %+v", r)
		}
	}
}

func TestChargeSwapLatency(t *testing.T) {
	// With swap charging on, total latency must be at least the uncharged
	// total plus some positive swap time (if any swap occurred).
	s, fr := fixtures(t, supernet.MobileNetV3)
	mk := func(charge bool) Summary {
		sys, err := New(s, fr, Options{
			Accel: accel.ZCU104(), Policy: sched.StrictAccuracy, Q: 2,
			Mode: Full, Candidates: 12, Seed: 1, ChargeSwapLatency: charge,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Alternate between extreme constraints to force cache movement.
		var qs []sched.Query
		for i := 0; i < 30; i++ {
			a := fr[0].Accuracy
			if i%2 == 1 {
				a = fr[len(fr)-1].Accuracy
			}
			qs = append(qs, sched.Query{ID: i, MinAccuracy: a})
		}
		rs, err := sys.ServeAll(qs)
		if err != nil {
			t.Fatal(err)
		}
		return Summarize(rs)
	}
	without := mk(false)
	with := mk(true)
	if with.CacheSwaps == 0 {
		t.Skip("no swaps triggered; charging not exercised")
	}
	if with.AvgLatency <= without.AvgLatency {
		t.Errorf("charged latency %.4g !> uncharged %.4g", with.AvgLatency, without.AvgLatency)
	}
}

func TestSummarize(t *testing.T) {
	rs := []Served{
		{Latency: 1e-3, Accuracy: 76, LatencyMet: true, AccuracyMet: true, Feasible: true, HitRatio: 0.5},
		{Latency: 3e-3, Accuracy: 78, LatencyMet: false, AccuracyMet: true, Feasible: false, HitRatio: 0.7, CacheSwapped: true},
	}
	s := Summarize(rs)
	if s.Queries != 2 {
		t.Error("query count")
	}
	if math.Abs(s.AvgLatency-2e-3) > 1e-12 {
		t.Error("avg latency")
	}
	if math.Abs(s.AvgAccuracy-77) > 1e-12 {
		t.Error("avg accuracy")
	}
	if math.Abs(s.LatencySLO-0.5) > 1e-12 || math.Abs(s.AccuracySLO-1) > 1e-12 {
		t.Error("SLO attainment")
	}
	if s.CacheSwaps != 1 {
		t.Error("swap count")
	}
	if s.P50Latency != 1e-3 || s.P99Latency != 3e-3 {
		t.Errorf("percentiles p50=%g p99=%g", s.P50Latency, s.P99Latency)
	}
	if Summarize(nil).Queries != 0 {
		t.Error("empty summarize")
	}
	if s.String() == "" {
		t.Error("summary string empty")
	}
}

func TestAdaptivityWinsOnPhasedWorkload(t *testing.T) {
	// When the query mix shifts over time (the paper's motivating
	// dynamically-variable deployments, §1), the Q-periodic cache
	// adaptation should recover near-best-static performance without
	// oracle knowledge of which static SubGraph is best, and strictly
	// beat the average (arbitrary) static choice.
	//
	// Reproduction note: because OFA SubNets share weights as *nested
	// prefixes*, the smallest frequently-served SubNet's cells are useful
	// to every larger SubNet, so an oracle static cache is near-universal
	// and the adaptive margin over it is structurally thin — consistent
	// with the paper's own Table 5 (+1% for MobV3, +4-9% for ResNet50).
	// The honest claim is adaptive ≥ arbitrary-static, ≈ oracle-static.
	s, fr := fixtures(t, supernet.MobileNetV3)
	mk := func(mode Mode, static int) Summary {
		sys, err := New(s, fr, Options{
			Accel:        accel.ZCU104(),
			Policy:       sched.StrictAccuracy,
			Q:            4,
			Mode:         mode,
			Candidates:   16,
			StaticColumn: static,
			Seed:         1,
		})
		if err != nil {
			t.Fatal(err)
		}
		loAcc := fr[0].Accuracy
		hiAcc := fr[len(fr)-1].Accuracy
		qs, err := workload.Phased(160, []workload.Phase{
			{Name: "low", Queries: 40, Acc: workload.Range{Lo: loAcc - 0.1, Hi: loAcc}, Lat: workload.Range{Lo: 1, Hi: 1}},
			{Name: "high", Queries: 40, Acc: workload.Range{Lo: hiAcc - 0.1, Hi: hiAcc}, Lat: workload.Range{Lo: 1, Hi: 1}},
		}, 21)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := sys.ServeAll(qs)
		if err != nil {
			t.Fatal(err)
		}
		return Summarize(rs)
	}
	adaptive := mk(Full, 0)
	bestStatic, sumStatic := math.Inf(1), 0.0
	const statics = 8
	for col := 0; col < statics; col++ {
		s := mk(StateUnaware, col).AvgLatency
		sumStatic += s
		if s < bestStatic {
			bestStatic = s
		}
	}
	avgStatic := sumStatic / statics
	t.Logf("phased: adaptive %.4f ms | best-static %.4f ms | avg-static %.4f ms",
		adaptive.AvgLatency*1e3, bestStatic*1e3, avgStatic*1e3)
	if adaptive.AvgLatency > bestStatic*1.005 {
		t.Errorf("adaptive %.4g ms regresses vs oracle static %.4g ms", adaptive.AvgLatency, bestStatic)
	}
	if adaptive.AvgLatency >= avgStatic {
		t.Errorf("adaptive %.4g ms !< average arbitrary static %.4g ms", adaptive.AvgLatency, avgStatic)
	}
	if adaptive.CacheSwaps == 0 {
		t.Error("adaptive system never swapped on a phased workload")
	}
}

func TestNewFailsWhenNoCandidatesFit(t *testing.T) {
	// A Persistent Buffer smaller than any weight cell leaves nothing to
	// cache; the system must fail loudly instead of serving with a
	// silently useless table.
	s, fr := fixtures(t, supernet.MobileNetV3)
	cfg := accel.ZCU104()
	cfg.PBBytes = 1
	_, err := New(s, fr, Options{
		Accel: cfg, Policy: sched.StrictAccuracy, Q: 4, Mode: Full, Candidates: 8, Seed: 1,
	})
	if err == nil {
		t.Fatal("1-byte PB accepted")
	}
}

func TestQLargerThanStream(t *testing.T) {
	// A cache period longer than the stream means no updates — the
	// system must still serve correctly.
	sys := newSystem(t, supernet.MobileNetV3, Full, sched.StrictAccuracy)
	qs, err := workload.Uniform(3, accRange(sys), latRange(sys), 1)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sys.ServeAll(qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.CacheSwapped {
			t.Fatal("swap before Q queries served")
		}
	}
}
