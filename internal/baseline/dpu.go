package baseline

import "sushi/internal/nn"

// DPUConfig models the Xilinx DPU (DPUCZDX8G, Table 2: 2304 peak
// ops/cycle): a dataflow with pixel parallelism PP in the X/Y dimensions,
// input-channel parallelism ICP and output-channel parallelism OCP, and a
// serial walk over the R*S kernel window. Its higher spatial parallelism
// is exactly why it beats SushiAccel on large-X/Y layers (§5.5) while
// losing on channel-heavy late layers.
type DPUConfig struct {
	// Name labels the device.
	Name string
	// OCP, ICP, PP are output-channel, input-channel and pixel
	// parallelism: peak MACs/cycle = OCP*ICP*PP.
	OCP, ICP, PP int
	// FreqMHz is the fabric clock.
	FreqMHz float64
	// OffChipBW is DRAM bandwidth in bytes/second.
	OffChipBW float64
	// WeightBufBytes is the on-chip weight cache used for double
	// buffering (no cross-query persistence — the DPU has no PB).
	WeightBufBytes int64
}

// XilinxDPU returns the DPUCZDX8G configuration scaled to the paper's
// comparison point (100 MHz, Table 2: 2304 ops/cycle = 1152 MACs/cycle).
func XilinxDPU() DPUConfig {
	return DPUConfig{
		Name:           "Xilinx DPU",
		OCP:            8,
		ICP:            9,
		PP:             16,
		FreqMHz:        100,
		OffChipBW:      19.2e9,
		WeightBufBytes: 1152 << 10,
	}
}

// PeakOpsPerCycle returns 2*OCP*ICP*PP, Table 2's throughput row.
func (c DPUConfig) PeakOpsPerCycle() int { return 2 * c.OCP * c.ICP * c.PP }

// computeCycles is the DPU tile loop: output channels across OCP, input
// channels across ICP, PP pixels per cycle, R*S serial.
func (c DPUConfig) computeCycles(l *nn.Layer) int64 {
	spatial := int64(l.OutH) * int64(l.OutW)
	switch l.Kind {
	case nn.Conv, nn.Linear:
		return ceilDiv(int64(l.K), int64(c.OCP)) *
			ceilDiv(int64(l.C), int64(c.ICP)) *
			ceilDiv(spatial, int64(c.PP)) *
			int64(l.R) * int64(l.S)
	case nn.DepthwiseConv:
		return ceilDiv(int64(l.C), int64(c.OCP)) *
			ceilDiv(spatial, int64(c.PP)) *
			int64(l.R) * int64(l.S)
	case nn.Pool, nn.Add:
		return ceilDiv(int64(l.C)*spatial, int64(c.OCP*c.PP))
	default:
		return 0
	}
}

// LayerLatency evaluates the DPU's critical path for one layer with the
// same fill-then-overlap discipline as SushiAccel but no Persistent
// Buffer: every weight byte comes from DRAM every time.
func (c DPUConfig) LayerLatency(l *nn.Layer) float64 {
	freq := c.FreqMHz * 1e6
	tCompute := float64(c.computeCycles(l)) / freq
	tIAct := float64(l.InputBytes()) / c.OffChipBW
	tOAct := float64(l.OutputBytes()) / c.OffChipBW
	w := l.WeightBytes()
	firstTile := w
	if half := c.WeightBufBytes / 2; firstTile > half {
		firstTile = half
	}
	tFill := float64(firstTile) / c.OffChipBW
	bulk := tIAct + tOAct + float64(w-firstTile)/c.OffChipBW
	excess := bulk - tCompute
	if excess < 0 {
		excess = 0
	}
	return tCompute + tFill + excess
}

func ceilDiv(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return (a + b - 1) / b
}
