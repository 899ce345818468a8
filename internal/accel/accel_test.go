package accel

import (
	"math"
	"testing"

	"sushi/internal/nn"
	"sushi/internal/supernet"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{ZCU104(), AlveoU50(), RooflineStudy()}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%s invalid: %v", c.Name, err)
		}
	}
	bad := ZCU104()
	bad.KP = 0
	if err := bad.Validate(); err == nil {
		t.Error("KP=0 accepted")
	}
	bad = ZCU104()
	bad.OffChipBW = 0
	if err := bad.Validate(); err == nil {
		t.Error("BW=0 accepted")
	}
	bad = ZCU104()
	bad.DBBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("DB=0 accepted")
	}
}

func TestPresetThroughput(t *testing.T) {
	// Table 2: ZCU104 2592 peak ops/cycle (259.2 GFLOPS @ 100 MHz),
	// Alveo U50 9216 (921.6 GFLOPS). §5.2: roofline study 1.296 TFLOPS.
	if got := ZCU104().PeakOpsPerCycle(); got != 2592 {
		t.Errorf("ZCU104 ops/cycle = %d, want 2592", got)
	}
	if got := ZCU104().PeakFLOPS(); math.Abs(got-259.2e9) > 1 {
		t.Errorf("ZCU104 GFLOPS = %g, want 259.2e9", got)
	}
	if got := AlveoU50().PeakOpsPerCycle(); got != 9216 {
		t.Errorf("AlveoU50 ops/cycle = %d, want 9216", got)
	}
	if got := RooflineStudy().PeakFLOPS(); math.Abs(got-1.296e12) > 1 {
		t.Errorf("RooflineStudy FLOPS = %g, want 1.296e12", got)
	}
}

func TestWithoutPBPreservesStorage(t *testing.T) {
	c := ZCU104()
	n := c.WithoutPB()
	if n.HasPB() {
		t.Fatal("WithoutPB still has PB")
	}
	if n.TotalBufferBytes() != c.TotalBufferBytes() {
		t.Errorf("w/o PB total storage %d != w/ PB %d (fair comparison requires equality)",
			n.TotalBufferBytes(), c.TotalBufferBytes())
	}
	// Idempotent on a PB-less config.
	n2 := n.WithoutPB()
	if n2.TotalBufferBytes() != n.TotalBufferBytes() || n2.Name != n.Name {
		t.Error("WithoutPB not idempotent")
	}
}

func TestComputeCyclesShapes(t *testing.T) {
	c := ZCU104() // KP=16, CP=9, W=9
	// Full-tile 3x3 conv: K=16, C=9 -> 1 k-tile, 1 c-tile, 1 slice/pixel.
	l := &nn.Layer{Kind: nn.Conv, C: 9, K: 16, R: 3, S: 3, InH: 10, InW: 10, OutH: 8, OutW: 8, Stride: 1}
	if got, want := computeCycles(&c, l), int64(64); got != want {
		t.Errorf("3x3 full tile cycles = %d, want %d", got, want)
	}
	// 1x1 conv flattens C across the DPE width: C=81 -> ceil(81/81)=1.
	l1 := &nn.Layer{Kind: nn.Conv, C: 81, K: 16, R: 1, S: 1, InH: 8, InW: 8, OutH: 8, OutW: 8, Stride: 1}
	if got, want := computeCycles(&c, l1), int64(64); got != want {
		t.Errorf("1x1 cycles = %d, want %d", got, want)
	}
	// Depthwise: channels across KP rows, sliding windows across CP
	// columns: ceil(32/16) k-tiles x ceil(64/9) spatial tiles x 1 slice.
	ld := &nn.Layer{Kind: nn.DepthwiseConv, C: 32, K: 32, R: 3, S: 3, InH: 8, InW: 8, OutH: 8, OutW: 8, Stride: 1}
	if got, want := computeCycles(&c, ld), int64(2*8); got != want {
		t.Errorf("depthwise cycles = %d, want %d", got, want)
	}
	// The dataflow story of Fig. 2: a big depthwise layer is memory-bound
	// while the dense conv of the same geometry is compute-bound.
	roof := RooflineStudy()
	dwBig := &nn.Layer{Kind: nn.DepthwiseConv, C: 384, K: 384, R: 3, S: 3, InH: 28, InW: 28, OutH: 28, OutW: 28, Stride: 1, Pad: 1}
	denseBig := &nn.Layer{Kind: nn.Conv, C: 384, K: 384, R: 3, S: 3, InH: 28, InW: 28, OutH: 28, OutW: 28, Stride: 1, Pad: 1}
	if ll := layerLatency(&roof, dwBig, 0); ll.ComputeBound {
		t.Error("large depthwise layer should be memory-bound (Fig. 2)")
	}
	if ll := layerLatency(&roof, denseBig, 0); !ll.ComputeBound {
		t.Error("large dense conv should be compute-bound")
	}
}

func TestLayerLatencyHiding(t *testing.T) {
	c := RooflineStudy()
	// A compute-heavy layer: weight fetch should hide behind compute, so
	// visible off-chip weight time ~ first tile only.
	heavy := &nn.Layer{Kind: nn.Conv, C: 512, K: 512, R: 3, S: 3, InH: 28, InW: 28, OutH: 28, OutW: 28, Stride: 1, Pad: 1}
	ll := layerLatency(&c, heavy, 0)
	firstTile := float64(c.DBHalfBytes()) / c.OffChipBW
	allFetch := float64(heavy.WeightBytes()) / c.OffChipBW
	if ll.WeightsOffChip > allFetch {
		t.Errorf("visible weight time %g exceeds total fetch %g", ll.WeightsOffChip, allFetch)
	}
	if ll.WeightsOffChip < firstTile-1e-12 {
		t.Errorf("visible weight time %g below first tile %g", ll.WeightsOffChip, firstTile)
	}
	if !ll.ComputeBound {
		t.Error("512x512 3x3 conv should be compute-bound on the roofline config")
	}
	// A memory-heavy layer (big weights, tiny spatial): fetch dominates.
	fc := &nn.Layer{Kind: nn.Linear, C: 2048, K: 1000, R: 1, S: 1, InH: 1, InW: 1, OutH: 1, OutW: 1, Stride: 1}
	lf := layerLatency(&c, fc, 0)
	if lf.ComputeBound {
		t.Error("fc layer should be memory-bound")
	}
	if lf.WeightsOffChip < 0.5*float64(fc.WeightBytes())/c.OffChipBW {
		t.Errorf("memory-bound layer should expose most of its weight fetch; visible %g", lf.WeightsOffChip)
	}
}

func TestLayerLatencyCacheHitReducesOffChip(t *testing.T) {
	c := ZCU104()
	l := &nn.Layer{Kind: nn.Linear, C: 2048, K: 1000, R: 1, S: 1, InH: 1, InW: 1, OutH: 1, OutW: 1, Stride: 1}
	miss := layerLatency(&c, l, 0)
	half := layerLatency(&c, l, l.WeightBytes()/2)
	full := layerLatency(&c, l, l.WeightBytes())
	if !(full.WeightsOffChip < half.WeightsOffChip && half.WeightsOffChip < miss.WeightsOffChip) {
		t.Errorf("off-chip weight time must fall with hits: full=%g half=%g miss=%g",
			full.WeightsOffChip, half.WeightsOffChip, miss.WeightsOffChip)
	}
	if full.WeightsOffChip != 0 {
		t.Errorf("fully cached layer still fetches %g s of weights", full.WeightsOffChip)
	}
	if full.DistinctBytes != 0 || miss.DistinctBytes != l.WeightBytes() {
		t.Errorf("distinct byte accounting wrong: full=%d miss=%d", full.DistinctBytes, miss.DistinctBytes)
	}
	// Hits exceeding the layer's weights must clamp.
	over := layerLatency(&c, l, 10*l.WeightBytes())
	if over.HitBytes != l.WeightBytes() {
		t.Errorf("hit bytes %d not clamped to weights %d", over.HitBytes, l.WeightBytes())
	}
}

// components sums a layer's five critical-path latency components.
func components(l *LayerLatency) float64 {
	return l.Compute + l.IActOffChip + l.WeightsOffChip + l.WeightsOnChip + l.OActOffChip
}

// TestLayerLatencyComponentsSum runs a SubNet one layer at a time: each
// one-layer report's Total is that layer's five components.
func TestLayerLatencyComponentsSum(t *testing.T) {
	_, fr := buildFrontier(t, supernet.MobileNetV3)
	sim, err := NewSimulator(ZCU104())
	if err != nil {
		t.Fatal(err)
	}
	for i := range fr[0].Model.Layers {
		rep, err := sim.RunLayers(fr[0], func(j int) bool { return j == i })
		if err != nil {
			t.Fatal(err)
		}
		sum := components(&rep.Layers[0])
		if sum <= 0 || math.Abs(sum-rep.Total()) > 1e-12*sum {
			t.Errorf("layer %d: components %g != Total %g", i, sum, rep.Total())
		}
	}
}

// buildFrontier is a test helper returning supernet + frontier.
func buildFrontier(t *testing.T, kind supernet.Kind) (*supernet.SuperNet, []*supernet.SubNet) {
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

func TestSimulatorRunMagnitudes(t *testing.T) {
	// Fig. 10 scale check: on the roofline config, ResNet50 frontier
	// latencies land in single-digit milliseconds, MobV3 under ~3 ms.
	_, rn := buildFrontier(t, supernet.ResNet50)
	sim, err := NewSimulator(RooflineStudy())
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for _, sn := range rn {
		rep, err := sim.Run(sn)
		if err != nil {
			t.Fatal(err)
		}
		tot := rep.Total()
		if tot < 0.5e-3 || tot > 20e-3 {
			t.Errorf("ResNet50 %s latency %.3f ms outside [0.5, 20] ms", sn.Name, tot*1e3)
		}
		if tot < prev {
			t.Errorf("ResNet50 %s latency %.3f ms below predecessor %.3f ms (frontier must be monotone)", sn.Name, tot*1e3, prev*1e3)
		}
		prev = tot
	}
	_, mb := buildFrontier(t, supernet.MobileNetV3)
	for _, sn := range mb {
		rep, err := sim.Run(sn)
		if err != nil {
			t.Fatal(err)
		}
		tot := rep.Total()
		if tot < 0.1e-3 || tot > 6e-3 {
			t.Errorf("MobV3 %s latency %.3f ms outside [0.1, 6] ms", sn.Name, tot*1e3)
		}
	}
}

func TestPBReducesLatency(t *testing.T) {
	// Caching a SubGraph must reduce latency, and by a larger fraction
	// for MobV3 than for ResNet50 (Fig. 10: 6-23.6% vs 5.7-7.92%).
	saves := map[supernet.Kind]float64{}
	for _, kind := range []supernet.Kind{supernet.ResNet50, supernet.MobileNetV3} {
		s, fr := buildFrontier(t, kind)
		cfg := RooflineStudy()
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sn := fr[0] // smallest subnet: largest relative benefit
		base, err := sim.Run(sn)
		if err != nil {
			t.Fatal(err)
		}
		// Cache the subnet's own cells, tail layers first: the late,
		// weight-heavy layers are the memory-bound ones (Fig. 2), so
		// they benefit most from residency.
		prio := make([]int, s.NumCells())
		for i := range prio {
			prio[i] = s.NumCells() - 1 - i
		}
		g := sn.Graph.TruncateToBudget(cfg.PBBytes, prio)
		if err := sim.SetCached(g); err != nil {
			t.Fatal(err)
		}
		cached, err := sim.Run(sn)
		if err != nil {
			t.Fatal(err)
		}
		if cached.Total() >= base.Total() {
			t.Errorf("%v: cached latency %.4f ms !< base %.4f ms", kind, cached.Total()*1e3, base.Total()*1e3)
		}
		save := 1 - cached.Total()/base.Total()
		saves[kind] = save
		t.Logf("%v %s: base %.3f ms cached %.3f ms save %.1f%% (hit %.2f MB)",
			kind, sn.Name, base.Total()*1e3, cached.Total()*1e3, save*100, float64(cached.HitBytes)/(1<<20))
		if save <= 0.005 || save > 0.45 {
			t.Errorf("%v: save fraction %.3f outside plausible (0.005, 0.45]", kind, save)
		}
		if cached.HitBytes == 0 {
			t.Error("cached run recorded no hit bytes")
		}
		if cached.OffChipBytes >= base.OffChipBytes {
			t.Error("cached run must move fewer off-chip bytes")
		}
	}
	// Paper shape: MobV3's relative savings exceed ResNet50's.
	if saves[supernet.MobileNetV3] <= saves[supernet.ResNet50] {
		t.Errorf("MobV3 save %.3f should exceed ResNet50 save %.3f (Fig. 10)",
			saves[supernet.MobileNetV3], saves[supernet.ResNet50])
	}
}

func TestSetCachedCapacityEnforced(t *testing.T) {
	s, fr := buildFrontier(t, supernet.ResNet50)
	sim, err := NewSimulator(ZCU104())
	if err != nil {
		t.Fatal(err)
	}
	// A full frontier subnet (~7 MB) exceeds the 1.7 MB PB.
	if err := sim.SetCached(fr[0].Graph); err == nil {
		t.Fatal("oversized SubGraph accepted into PB")
	}
	// The w/o PB config rejects all caching.
	noPB, err := NewSimulator(ZCU104().WithoutPB())
	if err != nil {
		t.Fatal(err)
	}
	small := supernet.NewSubGraph(s, "tiny")
	small.Add(0)
	if err := noPB.SetCached(small); err == nil {
		t.Fatal("caching accepted without a PB")
	}
	// Clearing is always fine.
	if err := noPB.SetCached(nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetCachedSwapAccounting(t *testing.T) {
	s, fr := buildFrontier(t, supernet.ResNet50)
	cfg := ZCU104()
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prio := make([]int, s.NumCells())
	for i := range prio {
		prio[i] = i
	}
	g1 := fr[0].Graph.TruncateToBudget(cfg.PBBytes, prio)
	if err := sim.SetCached(g1); err != nil {
		t.Fatal(err)
	}
	n, b := sim.Swaps()
	if n != 1 || b != g1.Bytes() {
		t.Errorf("first fill: swaps=%d bytes=%d, want 1, %d", n, b, g1.Bytes())
	}
	// Re-caching the same graph moves nothing new.
	if err := sim.SetCached(g1); err != nil {
		t.Fatal(err)
	}
	n2, b2 := sim.Swaps()
	if n2 != 2 || b2 != b {
		t.Errorf("identical re-cache moved %d extra bytes", b2-b)
	}
	// SetCached holds a private copy, SetCachedShared the caller's graph;
	// both book through Install, which trusts the footprint and fill it
	// is handed.
	if sim.Cached() == g1 {
		t.Error("SetCached aliased the caller's SubGraph")
	}
	if err := sim.SetCachedShared(g1); err != nil {
		t.Fatal(err)
	}
	if n3, b3 := sim.Swaps(); sim.Cached() != g1 || n3 != 3 || b3 != b {
		t.Errorf("shared re-cache: aliased=%v swaps=%d bytes=%d, want true, 3, %d", sim.Cached() == g1, n3, b3, b)
	}
	g2 := fr[len(fr)-1].Graph.TruncateToBudget(cfg.PBBytes/2, prio)
	if err := sim.Install(g2, g2.Bytes(), sim.FillBytes(g2)); err != nil {
		t.Fatal(err)
	}
	if n4, b4 := sim.Swaps(); n4 != 4 || b4 != b+g2.Bytes()-g2.IntersectBytes(g1) {
		t.Errorf("install: swaps=%d bytes=%d, want 4, %d", n4, b4, b+g2.Bytes()-g2.IntersectBytes(g1))
	}
	if err := sim.Install(g1, cfg.PBBytes+1, 0); err == nil || sim.Cached() != g2 {
		t.Error("install over capacity accepted")
	}
}

func TestRunLayersSubset(t *testing.T) {
	_, fr := buildFrontier(t, supernet.ResNet50)
	sim, err := NewSimulator(ZCU104())
	if err != nil {
		t.Fatal(err)
	}
	sn := fr[0]
	all, err := sim.Run(sn)
	if err != nil {
		t.Fatal(err)
	}
	conv3x3, err := sim.RunLayers(sn, func(i int) bool {
		l := &sn.Model.Layers[i]
		return l.Kind == nn.Conv && l.R == 3 && l.S == 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(conv3x3.Layers) == 0 || len(conv3x3.Layers) >= len(all.Layers) {
		t.Fatalf("3x3 subset has %d layers vs %d total", len(conv3x3.Layers), len(all.Layers))
	}
	if conv3x3.Total() >= all.Total() {
		t.Error("subset latency must be below full-model latency")
	}
}

func TestReportEnergyAccounting(t *testing.T) {
	_, fr := buildFrontier(t, supernet.MobileNetV3)
	cfg := ZCU104()
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(fr[3])
	if err != nil {
		t.Fatal(err)
	}
	wantOff := float64(rep.OffChipBytes) * cfg.OffChipPJPerByte * 1e-12
	if math.Abs(rep.OffChipEnergyJ-wantOff) > 1e-15 {
		t.Errorf("off-chip energy %g != bytes x pJ %g", rep.OffChipEnergyJ, wantOff)
	}
	if rep.OnChipEnergyJ <= 0 || rep.OffChipEnergyJ <= rep.OnChipEnergyJ {
		t.Errorf("energy split implausible: off=%g on=%g", rep.OffChipEnergyJ, rep.OnChipEnergyJ)
	}
	// Fig. 13b scale: single-query off-chip energy in the 0.1-3 mJ band.
	if rep.OffChipEnergyJ < 0.05e-3 || rep.OffChipEnergyJ > 5e-3 {
		t.Errorf("off-chip energy %.3f mJ outside [0.05, 5]", rep.OffChipEnergyJ*1e3)
	}
}

func TestBufferSpecs(t *testing.T) {
	c := ZCU104()
	specs := c.BufferSpecs()
	byName := map[string]BufferSpec{}
	for _, s := range specs {
		byName[s.Name] = s
		if s.WidthBytesPerCycle <= 0 {
			t.Errorf("buffer %s has non-positive width", s.Name)
		}
	}
	for _, want := range []string{"DB", "SB", "LB", "OB", "ZSB", "PB"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("missing buffer spec %s", want)
		}
	}
	// Table 1: DB width = LCM(off-chip B/cycle, KP*W).
	off := c.offChipBytesPerCycle()
	if db := byName["DB"].WidthBytesPerCycle; db%off != 0 || db%int64(c.KP*c.DPEWidth) != 0 {
		t.Errorf("DB width %d not a common multiple of %d and %d", db, off, c.KP*c.DPEWidth)
	}
	// No PB spec for the w/o PB config.
	noPB := c.WithoutPB()
	for _, s := range noPB.BufferSpecs() {
		if s.Name == "PB" {
			t.Error("w/o PB config advertises a PB buffer")
		}
	}
}

func TestEstimateResources(t *testing.T) {
	z := EstimateResources(ZCU104())
	u := EstimateResources(AlveoU50())
	if z.PeakOpsPerCycle != 2592 || u.PeakOpsPerCycle != 9216 {
		t.Errorf("ops/cycle: zcu=%d u50=%d", z.PeakOpsPerCycle, u.PeakOpsPerCycle)
	}
	// Table 2 shape: U50 uses ~3-4x the ZCU104's DSPs and LUTs.
	if ratio := float64(u.DSP) / float64(z.DSP); ratio < 2.5 || ratio > 5 {
		t.Errorf("DSP ratio U50/ZCU104 = %.2f outside [2.5, 5]", ratio)
	}
	if u.LUT <= z.LUT || u.Register <= z.Register {
		t.Error("U50 must use more logic than ZCU104")
	}
	// ZCU104 w/ PB: 96 URAMs (Table 2 reports 100% of 96).
	if z.URAM < 80 || z.URAM > 112 {
		t.Errorf("ZCU104 URAM estimate %d outside [80, 112] (paper: 96)", z.URAM)
	}
	// DSP order of magnitude (paper: 1459-1507 on ZCU104).
	if z.DSP < 1200 || z.DSP > 1800 {
		t.Errorf("ZCU104 DSP estimate %d outside [1200, 1800] (paper ~1500)", z.DSP)
	}
	// w/o PB frees the PB URAM into DB/SB, so URAM stays equal (Table 3).
	zNo := EstimateResources(ZCU104().WithoutPB())
	if zNo.URAM != z.URAM {
		t.Errorf("URAM w/o PB %d != w/ PB %d (total storage must match)", zNo.URAM, z.URAM)
	}
}

func TestGCDLCM(t *testing.T) {
	if g := gcd(12, 18); g != 6 {
		t.Errorf("gcd(12,18)=%d", g)
	}
	if l := lcm(4, 6); l != 12 {
		t.Errorf("lcm(4,6)=%d", l)
	}
	if l := lcm(0, 5); l != 0 {
		t.Errorf("lcm(0,5)=%d", l)
	}
}

func TestReportAggregationInvariants(t *testing.T) {
	// The report's summed components must equal the sum over layers, and
	// Total() must equal the component sum — the aggregation identity
	// every experiment relies on.
	_, fr := buildFrontier(t, supernet.MobileNetV3)
	sim, err := NewSimulator(ZCU104())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(fr[3])
	if err != nil {
		t.Fatal(err)
	}
	var compute, iact, woff, won, oact, layerTotal float64
	var distinct, hit, off int64
	for _, l := range rep.Layers {
		compute += l.Compute
		iact += l.IActOffChip
		woff += l.WeightsOffChip
		won += l.WeightsOnChip
		oact += l.OActOffChip
		layerTotal += components(&l)
		distinct += l.DistinctBytes
		hit += l.HitBytes
		off += l.DistinctBytes + l.IActBytes + l.OActBytes
	}
	approxEq := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }
	if !approxEq(rep.Compute, compute) || !approxEq(rep.IActOffChip, iact) ||
		!approxEq(rep.WeightsOffChip, woff) || !approxEq(rep.WeightsOnChip, won) ||
		!approxEq(rep.OActOffChip, oact) {
		t.Error("report components differ from layer sums")
	}
	if !approxEq(rep.Total(), layerTotal) {
		t.Errorf("Total %g != sum of layer totals %g", rep.Total(), layerTotal)
	}
	if rep.DistinctBytes != distinct || rep.HitBytes != hit || rep.OffChipBytes != off {
		t.Error("byte accounting differs from layer sums")
	}
}

// TestServeBatchAmortizesWeights pins the micro-batching model: a batch
// of n same-SubNet queries pays the weight traffic (off-chip fetches,
// on-chip supply, bytes, and their share of energy) ONCE, and only
// compute + activation traffic n times. Three properties: (1)
// ServeBatchInto(sn, 1) is bit-identical to Run(sn); (2) batched total
// latency equals weights + n x per-item (within float tolerance); (3)
// batched weight bytes are <= the sum of n solo runs, with equality
// only at n = 1.
func TestServeBatchAmortizesWeights(t *testing.T) {
	super, fr := buildFrontier(t, supernet.MobileNetV3)
	sim, err := NewSimulator(ZCU104())
	if err != nil {
		t.Fatal(err)
	}
	// A warm cache makes HitBytes non-trivial.
	g := supernet.NewSubGraph(super, "warm")
	for id := 0; id < super.NumCells()/2; id++ {
		g.Add(id)
	}
	if err := sim.SetCached(g); err != nil {
		t.Fatal(err)
	}
	sn := fr[len(fr)-1]
	solo, err := sim.Run(sn)
	if err != nil {
		t.Fatal(err)
	}

	var one Report
	if err := sim.ServeBatchInto(&one, sn, 1); err != nil {
		t.Fatal(err)
	}
	if one.Total() != solo.Total() || one.OffChipBytes != solo.OffChipBytes ||
		one.OnChipBytes != solo.OnChipBytes || one.HitBytes != solo.HitBytes ||
		one.DistinctBytes != solo.DistinctBytes || one.OffChipEnergyJ != solo.OffChipEnergyJ {
		t.Errorf("ServeBatchInto(sn, 1) differs from Run(sn): %+v vs %+v", one, solo)
	}

	weights := solo.WeightsOffChip + solo.WeightsOnChip
	perItem := solo.Compute + solo.IActOffChip + solo.OActOffChip
	// One scratch report across batch sizes: each call overwrites it.
	var rep Report
	for _, n := range []int{2, 4, 8} {
		if err := sim.ServeBatchInto(&rep, sn, n); err != nil {
			t.Fatal(err)
		}
		if rep.Batch != n {
			t.Errorf("n=%d: Batch = %d", n, rep.Batch)
		}
		want := weights + float64(n)*perItem
		if math.Abs(rep.Total()-want) > 1e-12*want {
			t.Errorf("n=%d: Total %g != weights + n x perItem %g", n, rep.Total(), want)
		}
		if math.Abs(rep.PerItem()-perItem) > 1e-9*perItem {
			t.Errorf("n=%d: PerItem %g != solo per-item %g", n, rep.PerItem(), perItem)
		}
		// Weight traffic charged once, not n times.
		if rep.DistinctBytes != solo.DistinctBytes || rep.HitBytes != solo.HitBytes {
			t.Errorf("n=%d: weight bytes scaled with batch: %d/%d vs solo %d/%d",
				n, rep.DistinctBytes, rep.HitBytes, solo.DistinctBytes, solo.HitBytes)
		}
		// Strictly less total traffic than n solo runs (the amortization),
		// and the batch must still cost more than one solo run.
		if nSolo := int64(n) * solo.OffChipBytes; rep.OffChipBytes >= nSolo {
			t.Errorf("n=%d: off-chip bytes %d not amortized vs %d", n, rep.OffChipBytes, nSolo)
		}
		if rep.OffChipBytes <= solo.OffChipBytes {
			t.Errorf("n=%d: off-chip bytes %d <= solo %d", n, rep.OffChipBytes, solo.OffChipBytes)
		}
		if rep.Total() <= solo.Total() || rep.Total() >= float64(n)*solo.Total() {
			t.Errorf("n=%d: batch latency %g outside (solo, n x solo) = (%g, %g)",
				n, rep.Total(), solo.Total(), float64(n)*solo.Total())
		}
		// Per-layer decomposition still sums to the batch total.
		var layerTotal float64
		for _, l := range rep.Layers {
			layerTotal += components(&l)
		}
		if math.Abs(layerTotal-rep.Total()) > 1e-12*rep.Total() {
			t.Errorf("n=%d: layer totals %g != Total %g", n, layerTotal, rep.Total())
		}
	}
	if err := sim.ServeBatchInto(&rep, sn, 0); err == nil {
		t.Error("batch size 0 accepted")
	}
	if err := sim.ServeBatchInto(&rep, nil, 2); err == nil {
		t.Error("nil SubNet accepted")
	}
}
