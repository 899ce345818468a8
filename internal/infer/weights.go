// Package infer executes SubNets functionally: it materializes
// deterministic int8 weights for the SuperNet's shared weight cells and
// runs real quantized forward passes through the tensor kernels. This is
// the substitution for the trained OFA checkpoints (the "Functional
// validation" row of docs/ARCHITECTURE.md's "Paper section → code"
// table): the weights are synthetic, but weight *sharing* is real — a
// weight at absolute coordinate (layer, k, c, a) has one value whichever
// SubNet reads it, exactly as in a weight-shared SuperNet, so an Engine
// holds it once and each SubNet's weight panel is a view.
package infer

import (
	"fmt"

	"sushi/internal/nn"
	"sushi/internal/supernet"
	"sushi/internal/tensor"
)

// WeightStore materializes weights for a SuperNet's elastic layers.
type WeightStore struct {
	super *supernet.SuperNet
	seed  uint64
}

// NewWeightStore binds a deterministic weight universe to a SuperNet.
func NewWeightStore(s *supernet.SuperNet, seed uint64) *WeightStore {
	if seed == 0 {
		seed = 0x5851f42d4c957f2d
	}
	return &WeightStore{super: s, seed: seed}
}

// weightAt returns the int8 value at absolute coordinate (layer, k, c, a).
// splitmix64-style mixing keeps values independent of materialization
// order and of which SubNet asks.
func (ws *WeightStore) weightAt(layer, k, c, a int) int8 {
	x := ws.seed
	x ^= uint64(layer)*0x9e3779b97f4a7c15 + uint64(k)*0xbf58476d1ce4e5b9 +
		uint64(c)*0x94d049bb133111eb + uint64(a)*0x2545f4914f6cdd1d
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	// Small magnitudes keep int32 accumulators far from overflow even on
	// 2048-channel reductions.
	return int8(int(x%15) - 7)
}

// kernelAreaIndex maps a (r, s) position of a k-sized kernel embedded in
// the layer's maximal kernel to its shared "ring" index: the central 3x3
// occupies indices 0..8, the 5x5 ring 9..24, the 7x7 ring 25..48 —
// OFA's center-crop kernel sharing.
func kernelAreaIndex(kmax, k, r, s int) int {
	// Absolute position in the kmax grid.
	off := (kmax - k) / 2
	ar, as := r+off, s+off
	// Ring number: distance from the center in Chebyshev metric.
	center := (kmax - 1) / 2
	dr, ds := ar-center, as-center
	ring := max(dr, -dr, ds, -ds)
	ringStart := (2*ring - 1) * (2*ring - 1) // cells inside this ring
	if ring == 0 {
		return 0
	}
	// Position along the ring perimeter, clockwise from top-left.
	side := 2*ring + 1
	var pos int
	switch {
	case dr == -ring: // top edge
		pos = ds + ring
	case ds == ring: // right edge
		pos = side - 1 + dr + ring
	case dr == ring: // bottom edge
		pos = 2*(side-1) + ring - ds
	default: // left edge
		pos = 3*(side-1) + ring - dr
	}
	return ringStart + pos
}

// LayerWeights assembles the weight tensor for elastic layer li at the
// SubNet's concrete dims: [K, C, kern, kern] for convs ([K, 1, kern,
// kern] depthwise, [K, C, 1, 1] for 1x1/linear).
func (ws *WeightStore) LayerWeights(li int, d supernet.LayerDims, kern int) (*tensor.Int8, error) {
	l, err := ws.layer(li, d, kern)
	if err != nil {
		return nil, err
	}
	w := tensor.NewInt8(tensor.Shape{N: d.K, C: d.C, H: kern, W: kern})
	for k := 0; k < d.K; k++ {
		for c := 0; c < d.C; c++ {
			for r := 0; r < kern; r++ {
				for s := 0; s < kern; s++ {
					a := kernelAreaIndex(l.RMax, kern, r, s)
					w.Set(k, c, r, s, ws.weightAt(li, k, c, a))
				}
			}
		}
	}
	return w, nil
}

// layer returns elastic layer li if LayerWeights accepts (li, d, kern).
func (ws *WeightStore) layer(li int, d supernet.LayerDims, kern int) (*supernet.ElasticLayer, error) {
	if li < 0 || li >= ws.super.NumLayers() {
		return nil, fmt.Errorf("infer: layer %d out of range", li)
	}
	l := &ws.super.Layers[li]
	if d.K <= 0 || d.C <= 0 || kern <= 0 {
		return nil, fmt.Errorf("infer: layer %s: empty dims %+v kern %d", l.Name, d, kern)
	}
	if d.K > l.KMax || d.C > l.CMax || kern > l.RMax {
		return nil, fmt.Errorf("infer: layer %s: dims %+v kern %d exceed maxima", l.Name, d, kern)
	}
	return l, nil
}

// panelDims is the (K, C) of model layer l's weight panel in its
// elastic layer's weight universe: a depthwise layer holds one kern²
// row per channel.
func panelDims(l *nn.Layer) supernet.LayerDims {
	if l.Kind == nn.DepthwiseConv {
		return supernet.LayerDims{K: l.C, C: 1}
	}
	return supernet.LayerDims{K: l.K, C: l.C}
}
