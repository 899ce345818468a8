package roofline

import (
	"math"
	"testing"

	"sushi/internal/accel"
	"sushi/internal/nn"
	"sushi/internal/supernet"
)

func newModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(accel.RooflineStudy())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	bad := accel.RooflineStudy()
	bad.KP = 0
	if _, err := New(bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestBalancePoint(t *testing.T) {
	m := newModel(t)
	// 1.296 TFLOPS / 19.2 GB/s = 67.5 FLOPs/byte.
	if got := m.BalancePoint(); math.Abs(got-67.5) > 0.1 {
		t.Errorf("balance point = %g, want 67.5", got)
	}
}

func TestAttainableClampsAtPeak(t *testing.T) {
	m := newModel(t)
	peak := accel.RooflineStudy().PeakFLOPS()
	if got := m.Attainable(1e6); got != peak {
		t.Errorf("attainable(1e6) = %g, want peak %g", got, peak)
	}
	// Below balance: bandwidth-limited slope.
	if got, want := m.Attainable(10), 10*19.2e9; math.Abs(got-want)/want > 1e-12 {
		t.Errorf("attainable(10) = %g, want %g", got, want)
	}
}

func TestLayerProfileFig2Shape(t *testing.T) {
	// Fig. 2's claim: MobV3 (and latter ResNet50) layers have low
	// arithmetic intensity -> memory-bound; early/mid dense convs are
	// compute-bound.
	m := newModel(t)
	rn := supernet.NewOFAResNet50()
	fr, err := rn.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	// The thin frontier SubNet A: Fig. 2's "smaller models have lower
	// arithmetic intensity" claim.
	prof := m.LayerProfile(fr[0].Model)
	if len(prof) == 0 {
		t.Fatal("empty profile")
	}
	memBound := 0
	for _, p := range prof {
		if p.Intensity <= 0 {
			t.Errorf("layer %s has non-positive intensity", p.Name)
		}
		if p.MemoryBound {
			memBound++
		}
	}
	if memBound == 0 {
		t.Error("thin ResNet50 should have some memory-bound conv layers (Fig. 2)")
	}
	if memBound == len(prof) {
		t.Error("ResNet50 should have some compute-bound conv layers too")
	}
	// The widest SubNet must be strictly less memory-bound than the thin
	// one (larger channel counts raise FLOPs/byte).
	profF := m.LayerProfile(fr[5].Model)
	memBoundF := 0
	for _, p := range profF {
		if p.MemoryBound {
			memBoundF++
		}
	}
	if float64(memBoundF)/float64(len(profF)) >= float64(memBound)/float64(len(prof)) {
		t.Error("widest ResNet50 should be less memory-bound than the thinnest")
	}

	mb := supernet.NewOFAMobileNetV3()
	frm, err := mb.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	profM := m.LayerProfile(frm[6].Model)
	memBoundM := 0
	for _, p := range profM {
		if p.MemoryBound {
			memBoundM++
		}
	}
	// MobV3 must be more memory-bound than ResNet50, fraction-wise.
	fracRN := float64(memBound) / float64(len(prof))
	fracMB := float64(memBoundM) / float64(len(profM))
	if fracMB <= fracRN {
		t.Errorf("MobV3 memory-bound fraction %.2f should exceed ResNet50's %.2f", fracMB, fracRN)
	}
	// Depthwise layers specifically should be memory-bound.
	for _, p := range profM {
		if p.Kind == nn.DepthwiseConv && !p.MemoryBound {
			t.Errorf("depthwise layer %s unexpectedly compute-bound (AI %.1f)", p.Name, p.Intensity)
		}
	}
}

func TestSubNetPointSGSShift(t *testing.T) {
	// Fig. 11: caching a SubGraph strictly increases effective intensity
	// and never decreases attainable throughput.
	m := newModel(t)
	s := supernet.NewOFAMobileNetV3()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	sn := fr[0]
	noCache, err := m.SubNetPoint(sn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if noCache.IntensitySGS != noCache.Intensity {
		t.Error("no cache: SGS intensity must equal base intensity")
	}
	prio := make([]int, s.NumCells())
	for i := range prio {
		prio[i] = s.NumCells() - 1 - i
	}
	cached := sn.Graph.TruncateToBudget(accel.RooflineStudy().PBBytes, prio)
	withCache, err := m.SubNetPoint(sn, cached)
	if err != nil {
		t.Fatal(err)
	}
	if withCache.IntensitySGS <= withCache.Intensity {
		t.Errorf("SGS intensity %.2f must exceed base %.2f when cache hits",
			withCache.IntensitySGS, withCache.Intensity)
	}
	if withCache.AttainableSGSTFLOPS < withCache.AttainableTFLOPS {
		t.Error("SGS attainable must not decrease")
	}
}

func TestFrontierPoints(t *testing.T) {
	m := newModel(t)
	s := supernet.NewOFAResNet50()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	for _, sn := range fr {
		p, err := m.SubNetPoint(sn, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.Intensity <= 0 || p.AttainableTFLOPS <= 0 {
			t.Errorf("point %s degenerate: %+v", p.Name, p)
		}
	}
}

func TestSubNetPointNil(t *testing.T) {
	m := newModel(t)
	if _, err := m.SubNetPoint(nil, nil); err == nil {
		t.Fatal("nil subnet accepted")
	}
}
