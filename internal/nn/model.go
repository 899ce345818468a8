package nn

import (
	"fmt"
)

// Model is an ordered sequence of layers forming one forward pass.
type Model struct {
	// Name identifies the model, e.g. "ofa-resnet50/subnet-A".
	Name   string
	Layers []Layer
}

// Validate checks every layer and inter-layer shape continuity for the
// linear chain portions (residual Adds are exempt from continuity since
// they join two paths).
func (m *Model) Validate() error {
	if len(m.Layers) == 0 {
		return fmt.Errorf("nn: model %q has no layers", m.Name)
	}
	for i := range m.Layers {
		if err := m.Layers[i].Validate(); err != nil {
			return fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return nil
}

// TotalFLOPs sums FLOPs over all layers.
func (m *Model) TotalFLOPs() int64 {
	var t int64
	for i := range m.Layers {
		t += m.Layers[i].FLOPs()
	}
	return t
}

// TotalWeightBytes sums the int8 weight footprint over all layers.
func (m *Model) TotalWeightBytes() int64 {
	var t int64
	for i := range m.Layers {
		t += m.Layers[i].WeightBytes()
	}
	return t
}

// ConvLayers returns indices of Conv/DepthwiseConv layers, the population
// plotted in Fig. 2 and Fig. 14.
func (m *Model) ConvLayers() []int {
	var idx []int
	for i := range m.Layers {
		k := m.Layers[i].Kind
		if k == Conv || k == DepthwiseConv {
			idx = append(idx, i)
		}
	}
	return idx
}
