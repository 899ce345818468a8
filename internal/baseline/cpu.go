// Package baseline implements the comparators of the paper's evaluation:
// a CPU inference model (Intel i7-10750H in §5.4) and a Xilinx DPU
// analytic model (DPUCZDX8G in §5.5). Neither artifact is available to a
// Go reproduction, so both are roofline-style analytic models calibrated
// to the published relative positions: SushiAccel beats the CPU by
// 1.4-3.2x and the DPU by ~25% geomean on ResNet50 3x3 layers while
// losing on some high-X/Y layers.
package baseline

import "sushi/internal/nn"

// CPUConfig models a general-purpose CPU running int8 inference.
type CPUConfig struct {
	// Name labels the device.
	Name string
	// EffFLOPS is sustained int8 conv throughput (vectorized GEMM with
	// framework overheads), not the datasheet peak.
	EffFLOPS float64
	// MemBW is sustained memory bandwidth in bytes/second.
	MemBW float64
	// PerLayerOverhead is framework dispatch cost per layer in seconds.
	PerLayerOverhead float64
}

// IntelI7_10750H returns the paper's CPU baseline (45 W mobile part):
// ~80 GFLOPS sustained int8 conv throughput and ~25 GB/s DRAM bandwidth.
func IntelI7_10750H() CPUConfig {
	return CPUConfig{
		Name:             "Intel i7-10750H",
		EffFLOPS:         80e9,
		MemBW:            25e9,
		PerLayerOverhead: 30e-6,
	}
}

// LayerLatency returns the CPU time for one layer: the roofline max of
// compute and memory plus dispatch overhead.
func (c CPUConfig) LayerLatency(l *nn.Layer) float64 {
	tc := float64(l.FLOPs()) / c.EffFLOPS
	tm := float64(l.TotalBytes()) / c.MemBW
	t := tc
	if tm > t {
		t = tm
	}
	return t + c.PerLayerOverhead
}

// LayersLatency sums LayerLatency over the selected layers.
func (c CPUConfig) LayersLatency(m *nn.Model, keep func(i int) bool) float64 {
	var t float64
	for i := range m.Layers {
		if keep(i) {
			t += c.LayerLatency(&m.Layers[i])
		}
	}
	return t
}
