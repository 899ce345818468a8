package accel

import (
	"sushi/internal/nn"
)

// LayerLatency is the per-layer critical-path decomposition of Fig. 10:
// the five components sum to the layer's latency, and over a run's
// layers to Report.Total. Times are in seconds, traffic in bytes.
type LayerLatency struct {
	// Name echoes the layer name.
	Name string
	// Kind echoes the operator type.
	Kind nn.LayerKind
	// Compute is the DPE-array busy time on the critical path.
	Compute float64
	// IActOffChip is the visible off-chip input-activation fetch time.
	IActOffChip float64
	// WeightsOffChip is the visible off-chip distinct-weight fetch time
	// after ping-pong hiding behind compute (Fig. 9b).
	WeightsOffChip float64
	// WeightsOnChip is the on-chip weight-supply time (PB/DB -> DPE).
	WeightsOnChip float64
	// OActOffChip is the visible off-chip output writeback time.
	OActOffChip float64
	// DistinctBytes is the weight traffic actually fetched from DRAM
	// (including re-streaming across spatial passes); HitBytes the
	// weights served from the Persistent Buffer.
	DistinctBytes, HitBytes int64
	// IActBytes, OActBytes are the activation traffic.
	IActBytes, OActBytes int64
	// ComputeBound reports whether compute exceeded total DRAM time.
	ComputeBound bool
}

// computeCycles models the DPE array schedule for one layer:
//
//   - Conv with R*S > 1: each DPE reduces one R*S kernel slice in
//     ceil(R*S/DPEWidth) cycles per output pixel; KP kernels and CP input
//     channels run in parallel, so the tile loop is
//     ceil(K/KP) * ceil(C/CP) * OH*OW * ceil(R*S/W).
//   - Conv 1x1: the channel dimension is flattened across the DPE's
//     multipliers (§4.2.1), so C is reduced CP*W at a time.
//   - DepthwiseConv: every kernel touches a single channel, so the CP
//     columns cannot reduce across channels; the Line Buffer instead
//     feeds different sliding windows to different columns (spatial
//     parallelism). The layer still ends up memory-bound because its
//     arithmetic intensity is ~C times lower than a dense conv (Fig. 2).
//   - Linear: a 1x1 conv with a single output pixel.
//   - Pool/Add: elementwise, executed on the output datapath at one
//     element per PE per cycle.
//
// When a layer's input-channel count leaves DPE columns idle (e.g. the
// RGB stem), the Line Buffer maps the spare columns to additional sliding
// windows, multiplying spatial throughput.
func computeCycles(c *Config, l *nn.Layer) int64 {
	spatial := int64(l.OutH) * int64(l.OutW)
	w := int64(c.DPEWidth)
	kp, cp := int64(c.KP), int64(c.CP)
	switch l.Kind {
	case nn.Conv, nn.Linear:
		unitsC := cp // channels reduced per cycle per kernel slice
		slice := ceilDiv(int64(l.R)*int64(l.S), w)
		if l.R*l.S == 1 {
			// 1x1 kernels flatten C across the DPE width (§4.2.1).
			unitsC = cp * w
			slice = 1
		}
		cTiles := ceilDiv(int64(l.C), unitsC)
		spare := max(unitsC/int64(l.C), 1)
		return ceilDiv(int64(l.K), kp) * cTiles * ceilDiv(spatial, spare) * slice
	case nn.DepthwiseConv:
		return ceilDiv(int64(l.C), kp) * ceilDiv(spatial, cp) * ceilDiv(int64(l.R)*int64(l.S), w)
	case nn.Pool, nn.Add:
		return ceilDiv(int64(l.C)*spatial, kp*cp)
	default:
		return 0
	}
}

// layerLatency evaluates the critical-path model for one layer.
//
// The dataflow (Fig. 9b) overlaps bulk DRAM traffic with compute: the
// Streaming Buffer prefetches iActs, the ping-pong Dynamic Buffer hides
// each next weight tile behind the current tile's compute, and the Output
// Buffer streams final oActs while later tiles still run. What cannot be
// hidden is (a) the pipeline-fill prologue — the first distinct-weight
// tile — and (b) any DRAM traffic in excess of the layer's compute time.
// Weights resident in the Persistent Buffer (hitBytes) skip DRAM but
// still traverse the on-chip weight port.
//
// For the stacked Fig. 10 report, the visible excess is attributed to
// iAct / weight / oAct streams proportionally to their bulk traffic, so
// the five components always sum to the layer's critical-path latency.
func layerLatency(c *Config, l *nn.Layer, hitBytes int64) LayerLatency {
	freq := c.Freq()
	weightBytes := l.WeightBytes()
	hitBytes = min(hitBytes, weightBytes)
	distinct := weightBytes - hitBytes

	tCompute := float64(computeCycles(c, l)) / freq
	// The Output Buffer accumulates int32 partial sums in place for one
	// KP-row tile. When the tile's output plane exceeds OB, the layer
	// splits into spatial passes. The Streaming Buffer holds the entire
	// iActs (fetched from DRAM once — its stated purpose, Fig. 7), but
	// the Dynamic Buffer only double-buffers weight tiles, so distinct
	// weights are re-streamed from DRAM on every pass. Persistent-Buffer
	// residents are supplied on chip in every pass for free — this
	// re-fetch amplification is part of why SGS pays off, and why
	// SushiAccel loses ground on large-X/Y layers vs the DPU (§5.5).
	passes := int64(1)
	if l.Kind == nn.Conv || l.Kind == nn.DepthwiseConv {
		obNeed := int64(c.KP) * int64(l.OutH) * int64(l.OutW) * 4
		if p := ceilDiv(obNeed, c.OBBytes); p > 1 {
			passes = p
		}
	}
	weightTraffic := distinct * passes
	iActBytes := l.InputBytes()
	tIAct := float64(iActBytes) / c.OffChipBW
	tOAct := float64(l.OutputBytes()) / c.OffChipBW
	tW := float64(weightTraffic) / c.OffChipBW

	// Serial prologue: the first weight tile must land before compute
	// starts (stage D1 in Fig. 9b).
	firstTile := distinct
	if half := c.DBHalfBytes(); firstTile > half {
		firstTile = half
	}
	tFill := float64(firstTile) / c.OffChipBW

	// Bulk DRAM traffic that can overlap compute.
	bulkI := tIAct
	bulkW := tW - tFill
	bulkO := tOAct
	bulk := bulkI + bulkW + bulkO
	excess := bulk - tCompute
	if excess < 0 {
		excess = 0
	}

	// Proportional attribution of the visible excess.
	var visI, visW, visO float64
	if bulk > 0 {
		visI = excess * bulkI / bulk
		visW = excess * bulkW / bulk
		visO = excess * bulkO / bulk
	}

	// On-chip weight supply (PB and DB share the weight-port geometry):
	// the pipeline-fill cost of streaming weights into the DPE rows.
	tWOn := float64(weightBytes) / c.OnChipWeightBW()

	tDRAM := tIAct + tW + tOAct
	return LayerLatency{
		Name:           l.Name,
		Kind:           l.Kind,
		Compute:        tCompute,
		IActOffChip:    visI,
		WeightsOffChip: tFill + visW,
		WeightsOnChip:  tWOn,
		OActOffChip:    visO,
		DistinctBytes:  weightTraffic,
		HitBytes:       hitBytes,
		IActBytes:      iActBytes,
		OActBytes:      l.OutputBytes(),
		ComputeBound:   tCompute >= tDRAM,
	}
}

func ceilDiv(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return (a + b - 1) / b
}
