// Package roofline implements the roofline analysis tool of §5.2: per-layer
// arithmetic intensity (Fig. 2), the roofline curve of an accelerator
// configuration, and the SGS-adjusted roofline (Fig. 11) in which the
// Persistent Buffer's weight residency virtually raises the effective
// off-chip bandwidth and pushes models from memory-bound toward
// compute-bound.
package roofline

import (
	"fmt"

	"sushi/internal/accel"
	"sushi/internal/nn"
	"sushi/internal/supernet"
)

// LayerPoint is one layer's position in roofline space (Fig. 2).
type LayerPoint struct {
	// Index is the layer's position among the model's conv layers.
	Index int
	// Name is the layer name.
	Name string
	// Kind is the operator type.
	Kind nn.LayerKind
	// Intensity is FLOPs/byte with every operand moved once.
	Intensity float64
	// FLOPs is the layer's work.
	FLOPs int64
	// MemoryBound reports whether the layer sits left of the machine
	// balance point (attainable < peak).
	MemoryBound bool
}

// ModelPoint is one whole-model position in roofline space (Fig. 11).
type ModelPoint struct {
	// Name is the SubNet name ("A".."G").
	Name string
	// Intensity is the model's aggregate FLOPs/byte; IntensitySGS the
	// same with PB-resident weight bytes removed from the denominator.
	Intensity, IntensitySGS float64
	// AttainableTFLOPS and AttainableSGSTFLOPS are the roofline values
	// at the two intensities.
	AttainableTFLOPS, AttainableSGSTFLOPS float64
}

// Model wraps an accelerator configuration for roofline evaluation.
type Model struct {
	cfg accel.Config
}

// New returns a roofline model for cfg.
func New(cfg accel.Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{cfg: cfg}, nil
}

// BalancePoint returns the machine balance in FLOPs/byte: layers with
// lower arithmetic intensity are memory-bound.
func (m *Model) BalancePoint() float64 {
	return m.cfg.PeakFLOPS() / m.cfg.OffChipBW
}

// Attainable returns the roofline value min(peak, intensity*BW) in FLOPS.
func (m *Model) Attainable(intensity float64) float64 {
	v := intensity * m.cfg.OffChipBW
	if p := m.cfg.PeakFLOPS(); v > p {
		return p
	}
	return v
}

// LayerProfile computes Fig. 2: the arithmetic intensity of every conv
// layer of a model, flagged memory/compute bound against this roofline.
func (m *Model) LayerProfile(mod *nn.Model) []LayerPoint {
	balance := m.BalancePoint()
	var out []LayerPoint
	for i, li := range mod.ConvLayers() {
		l := &mod.Layers[li]
		ai := l.ArithmeticIntensity()
		out = append(out, LayerPoint{
			Index:       i,
			Name:        l.Name,
			Kind:        l.Kind,
			Intensity:   ai,
			FLOPs:       l.FLOPs(),
			MemoryBound: ai < balance,
		})
	}
	return out
}

// SubNetPoint computes Fig. 11 for one SubNet: its aggregate roofline
// position without and with SGS. cached may be nil (no PB residency).
func (m *Model) SubNetPoint(sn *supernet.SubNet, cached *supernet.SubGraph) (ModelPoint, error) {
	if sn == nil || sn.Model == nil {
		return ModelPoint{}, fmt.Errorf("roofline: nil SubNet")
	}
	flops := sn.Model.TotalFLOPs()
	var bytes, hitBytes int64
	for i := range sn.Model.Layers {
		l := &sn.Model.Layers[i]
		bytes += l.TotalBytes()
		if cached != nil && l.BlockID >= 0 {
			hitBytes += sn.Graph.LayerHitBytes(l.BlockID, cached)
		}
	}
	if bytes == 0 {
		return ModelPoint{}, fmt.Errorf("roofline: SubNet %s moves no bytes", sn.Name)
	}
	if hitBytes > bytes {
		hitBytes = bytes
	}
	ai := float64(flops) / float64(bytes)
	aiSGS := ai
	if bytes > hitBytes {
		aiSGS = float64(flops) / float64(bytes-hitBytes)
	}
	return ModelPoint{
		Name:                sn.Name,
		Intensity:           ai,
		IntensitySGS:        aiSGS,
		AttainableTFLOPS:    m.Attainable(ai) / 1e12,
		AttainableSGSTFLOPS: m.Attainable(aiSGS) / 1e12,
	}, nil
}
