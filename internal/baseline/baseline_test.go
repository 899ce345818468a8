package baseline

import (
	"math"
	"testing"

	"sushi/internal/accel"
	"sushi/internal/nn"
	"sushi/internal/supernet"
)

func TestDPUPeakOpsPerCycle(t *testing.T) {
	if got := XilinxDPU().PeakOpsPerCycle(); got != 2304 {
		t.Errorf("DPU ops/cycle = %d, want 2304 (Table 2)", got)
	}
}

func TestCPULayerLatencyRoofline(t *testing.T) {
	cpu := IntelI7_10750H()
	// Compute-bound layer: latency tracks FLOPs.
	big := &nn.Layer{Kind: nn.Conv, C: 256, K: 256, R: 3, S: 3, InH: 28, InW: 28, OutH: 28, OutW: 28, Stride: 1, Pad: 1}
	wantC := float64(big.FLOPs())/cpu.EffFLOPS + cpu.PerLayerOverhead
	if got := cpu.LayerLatency(big); math.Abs(got-wantC)/wantC > 1e-9 {
		t.Errorf("compute-bound CPU latency %g, want %g", got, wantC)
	}
	// Memory-bound layer: latency tracks bytes.
	fc := &nn.Layer{Kind: nn.Linear, C: 2048, K: 1000, R: 1, S: 1, InH: 1, InW: 1, OutH: 1, OutW: 1, Stride: 1}
	wantM := float64(fc.TotalBytes())/cpu.MemBW + cpu.PerLayerOverhead
	if got := cpu.LayerLatency(fc); math.Abs(got-wantM)/wantM > 1e-9 {
		t.Errorf("memory-bound CPU latency %g, want %g", got, wantM)
	}
}

func TestFig13aShape(t *testing.T) {
	// §5.4.2: on ZCU104 SushiAccel achieves 1.81-3.04x (w/o PB) to
	// 1.87-3.17x (w/ PB) speedup over the CPU across ResNet50 SubNets,
	// evaluated on the 3x3 conv layers. Check that our models land in a
	// compatible band (1.2-5x) and that PB never hurts.
	s := supernet.NewOFAResNet50()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	cpu := IntelI7_10750H()
	sim, err := accel.NewSimulator(accel.ZCU104())
	if err != nil {
		t.Fatal(err)
	}
	is3x3 := func(m *nn.Model) func(int) bool {
		return func(i int) bool {
			l := &m.Layers[i]
			return l.Kind == nn.Conv && l.R == 3 && l.S == 3
		}
	}
	for _, sn := range fr {
		rep, err := sim.RunLayers(sn, is3x3(sn.Model))
		if err != nil {
			t.Fatal(err)
		}
		cpuT := cpu.LayersLatency(sn.Model, is3x3(sn.Model))
		speedup := cpuT / rep.Total()
		if speedup < 1.2 || speedup > 5 {
			t.Errorf("%s: CPU/SushiAccel speedup %.2fx outside [1.2, 5] (paper 1.8-3.2)", sn.Name, speedup)
		}
	}
}

func TestFig14DPUComparisonShape(t *testing.T) {
	// §5.5: per-layer on ResNet50's min SubNet 3x3 convs, SushiAccel w/o
	// PB is 0.5-1.95x the DPU with ~25% geomean speedup; there exist
	// layers where the DPU wins (high X/Y) and layers where SushiAccel
	// wins.
	s := supernet.NewOFAResNet50()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	minSN := fr[0]
	dpu := XilinxDPU()
	sim, err := accel.NewSimulator(accel.ZCU104().WithoutPB())
	if err != nil {
		t.Fatal(err)
	}
	var ratios []float64
	sushiWins, dpuWins := 0, 0
	logGeo := 0.0
	for i := range minSN.Model.Layers {
		l := &minSN.Model.Layers[i]
		if l.Kind != nn.Conv || l.R != 3 || l.S != 3 {
			continue
		}
		rep, err := sim.RunLayers(minSN, func(j int) bool { return j == i })
		if err != nil {
			t.Fatal(err)
		}
		ratio := dpu.LayerLatency(l) / rep.Total() // >1 means SushiAccel faster
		ratios = append(ratios, ratio)
		logGeo += math.Log(ratio)
		if ratio > 1 {
			sushiWins++
		} else {
			dpuWins++
		}
	}
	if len(ratios) == 0 {
		t.Fatal("no 3x3 layers found")
	}
	geo := math.Exp(logGeo / float64(len(ratios)))
	t.Logf("Fig 14: %d layers, geomean speedup %.2fx, sushi wins %d, dpu wins %d", len(ratios), geo, sushiWins, dpuWins)
	if geo < 1.0 || geo > 2.0 {
		t.Errorf("geomean speedup %.2fx outside [1.0, 2.0] (paper 1.251)", geo)
	}
	if sushiWins == 0 {
		t.Error("SushiAccel should win on most layers")
	}
	if dpuWins == 0 {
		t.Error("DPU should win on some (high X/Y) layers — Fig 14's 'seldom cases'")
	}
	for _, r := range ratios {
		if r < 0.3 || r > 3.5 {
			t.Errorf("per-layer ratio %.2f outside the paper's 0.5-1.95 band (with slack)", r)
		}
	}
}
