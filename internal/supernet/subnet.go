package supernet

import (
	"math"

	"sushi/internal/nn"
)

// SubNet is a concrete, servable network extracted (virtually) from a
// SuperNet: a forward-pass model plus the SubGraph of weight cells it
// uses. Accuracy is fixed per SubNet; latency depends on the accelerator
// state (the cached SubGraph), which is why it lives in the latency table
// rather than here.
type SubNet struct {
	// Name identifies the SubNet (frontier SubNets use "A".."G").
	Name string
	// Spec is the elastic selection that produced the SubNet.
	Spec SubNetSpec
	// Model is the concrete forward pass.
	Model *nn.Model
	// Graph is the weight-cell coverage (a SubGraph; every SubNet is one).
	Graph *SubGraph
	// Dims[i] gives the concrete extents used in elastic layer i
	// (zero-value when the layer is skipped by depth elasticity).
	Dims []LayerDims
	// Accuracy is the estimated top-1 accuracy (percent).
	Accuracy float64
}

// WeightBytes returns the SubNet's total int8 weight footprint.
func (sn *SubNet) WeightBytes() int64 { return sn.Graph.Bytes() }

// FLOPs returns the forward-pass FLOP count.
func (sn *SubNet) FLOPs() int64 { return sn.Model.TotalFLOPs() }

// Vector returns the SubNet's [K1, C1, ...] encoding (Fig. 6). Unlike
// SubGraph.Vector this uses the concrete dims directly, which is exact.
func (sn *SubNet) Vector() []float64 {
	v := make([]float64, 2*len(sn.Dims))
	for i, d := range sn.Dims {
		v[2*i] = float64(d.K)
		v[2*i+1] = float64(d.C)
	}
	return v
}

// Instantiate materializes the SubNet selected by sp: concrete model,
// covered cells, accuracy estimate.
func (s *SuperNet) Instantiate(sp SubNetSpec) (*SubNet, error) {
	if err := s.Validate(sp); err != nil {
		return nil, err
	}
	model, dims, err := s.subnet(sp)
	if err != nil {
		return nil, err
	}
	g := NewSubGraph(s, model.Name)
	for li, d := range dims {
		if d.K == 0 {
			continue // layer absent
		}
		for _, id := range s.layerCells[li] {
			c := &s.Cells[id]
			if c.KHi <= d.K && c.CHi <= d.C && c.AHi <= d.Area {
				g.Add(id)
			}
		}
	}
	sn := &SubNet{
		Name:  model.Name,
		Spec:  sp,
		Model: model,
		Graph: g,
		Dims:  dims,
	}
	sn.Accuracy = s.Accuracy(sn)
	return sn, nil
}

// Accuracy estimates top-1 accuracy for a SubNet using a saturating
// log-FLOPs curve calibrated to the paper's Pareto frontier ranges
// (75–80% for both families). This substitutes for the trained OFA
// checkpoints: SUSHI's control decisions consume only the accuracy
// *values*, never gradients or logits, so a calibrated monotone curve
// preserves the scheduler-visible behaviour.
func (s *SuperNet) Accuracy(sn *SubNet) float64 {
	f := float64(sn.FLOPs())
	lo, hi := float64(s.flopsLo), float64(s.flopsHi)
	if hi <= lo {
		return s.accHi
	}
	// Normalized log position in [0, 1].
	t := (math.Log(f) - math.Log(lo)) / (math.Log(hi) - math.Log(lo))
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	// Concave: accuracy gains saturate with compute.
	t = 1 - (1-t)*(1-t)
	return s.accLo + (s.accHi-s.accLo)*t
}
