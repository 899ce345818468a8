// Package supernet implements the weight-shared DNN (WS-DNN) construct at
// the center of SUSHI: a SuperNet containing every SubNet reachable through
// its elastic dimensions (depth per stage, expand ratio, kernel size, width
// multiplier), plus the SubGraph machinery (arbitrary cacheable subsets of
// SuperNet weights) used by the SubGraph Stationary optimization.
//
// Weight sharing follows Once-for-All semantics: a SubNet uses the prefix
// slice of each shared weight tensor along the kernel (K), channel (C) and
// kernel-area (R*S) axes. The package therefore partitions every elastic
// layer's weight tensor into a grid of cells at the elastic cut points;
// a SubNet covers the prefix rectangle of cells implied by its concrete
// dimensions, and any union/intersection of such coverages is a SubGraph.
// Cells are the atomic unit of the Persistent Buffer's caching decisions.
// Each family is written once, as a walk that emits the SubNet at a spec;
// the SuperNet's elastic layers, cut points and FLOPs range are derived
// from the SubNets at its uniform specs.
package supernet

import (
	"fmt"
	"slices"

	"sushi/internal/nn"
)

// Kind identifies which SuperNet family a network belongs to.
type Kind int

const (
	// ResNet50 is the weight-shared OFA-ResNet50 family.
	ResNet50 Kind = iota
	// MobileNetV3 is the weight-shared OFA-MobileNetV3 family.
	MobileNetV3
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case ResNet50:
		return "ResNet50"
	case MobileNetV3:
		return "MobV3"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ElasticLayer is one weight-carrying layer of the SuperNet at its maximal
// configuration, together with the elastic cut points that partition its
// weight tensor into cells.
type ElasticLayer struct {
	// Name identifies the layer, e.g. "stage2.block1.conv2".
	Name string
	// Kind is the operator type (Conv, DepthwiseConv or Linear).
	Kind nn.LayerKind
	// KMax, CMax are the maximal kernel (output channel) and input
	// channel counts; RMax, SMax the maximal kernel window.
	KMax, CMax, RMax, SMax int
	// KCuts, CCuts, ACuts are the ascending elastic cut points along the
	// kernel, channel and kernel-area (R*S) axes. The last element always
	// equals the maximal extent. A concrete SubNet dimension is always
	// one of the cut points.
	KCuts, CCuts, ACuts []int
}

// Cell is an atomic cacheable fragment of one elastic layer's weight
// tensor: the sub-box (kLo:kHi] x (cLo:cHi] x (aLo:aHi].
type Cell struct {
	// Layer indexes into SuperNet.Layers.
	Layer int
	// KLo, KHi bound the kernel axis of the cell.
	KLo, KHi int
	// CLo, CHi bound the channel axis.
	CLo, CHi int
	// ALo, AHi bound the kernel-area axis (R*S elements).
	ALo, AHi int
	// Bytes is the int8 weight footprint of the cell.
	Bytes int64
}

// SuperNet is the weight-shared network: elastic layers plus the derived
// global cell table.
type SuperNet struct {
	// Name identifies the supernet, e.g. "ofa-resnet50".
	Name string
	// Kind is the architecture family.
	Kind Kind
	// Layers lists every weight-carrying elastic layer at max config.
	Layers []ElasticLayer
	// Cells is the global cell table; cell IDs index this slice.
	Cells []Cell
	// layerCells[i] lists the cell IDs belonging to Layers[i].
	layerCells [][]int
	// StageDepths[s] is the max block count of stage s; MinDepth the
	// minimum selectable depth.
	StageDepths []int
	// MinDepth is the smallest selectable per-stage depth.
	MinDepth int
	// ExpandChoices, KernelChoices, WidthChoices enumerate the elastic
	// dimension options (kernel and width may be nil for families that
	// lack that dimension).
	ExpandChoices []float64
	KernelChoices []int
	WidthChoices  []float64
	// accLo, accHi calibrate the accuracy model (top-1 %).
	accLo, accHi float64
	// flopsLo, flopsHi are the min/max SubNet FLOPs, filled by finish.
	flopsLo, flopsHi int64
	// walk emits the family's SubNet at a spec into a walker.
	walk func(w *walker, sp SubNetSpec)
}

// LayerDims gives a SubNet's concrete extents for one elastic layer.
// A zero-value LayerDims (K == 0) means the layer is absent in the SubNet.
type LayerDims struct {
	// K, C are the used kernel/channel counts; Area the used R*S extent.
	K, C, Area int
}

// NumLayers returns the number of elastic layers.
func (s *SuperNet) NumLayers() int { return len(s.Layers) }

// NumCells returns the size of the global cell table.
func (s *SuperNet) NumCells() int { return len(s.Cells) }

// LayerCells returns the cell IDs of layer i (shared slice; do not mutate).
func (s *SuperNet) LayerCells(i int) []int { return s.layerCells[i] }

// walker records one SubNet walk: the concrete layers in forward order
// and, for every elastic weight layer the family declares, the dims the
// walked spec gives it (zero when the spec leaves its block out).
type walker struct {
	m    *nn.Model
	dims []LayerDims
}

// weight declares the next elastic weight layer; it keeps its SuperNet
// index even when on is false and the spec leaves it out.
func (w *walker) weight(on bool, l nn.Layer) {
	var d LayerDims
	if on {
		l.BlockID = len(w.dims)
		w.m.Layers = append(w.m.Layers, l)
		d = LayerDims{K: l.K, C: l.C, Area: l.R * l.S}
		if l.Kind == nn.DepthwiseConv {
			// A depthwise weight tensor's per-group channel extent is 1.
			d.C = 1
		}
	}
	w.dims = append(w.dims, d)
}

// op appends a weightless layer (pool or add) when on is true.
func (w *walker) op(on bool, l nn.Layer) {
	if on {
		l.BlockID = -1
		w.m.Layers = append(w.m.Layers, l)
	}
}

// subnet walks the family at sp: the concrete model and the dims of every
// elastic layer.
func (s *SuperNet) subnet(sp SubNetSpec) (*nn.Model, []LayerDims, error) {
	// Layers is known after finish's first walk; sizing dims to it keeps
	// a SubNet's Dims free of spare capacity.
	w := walker{m: &nn.Model{}, dims: make([]LayerDims, 0, len(s.Layers))}
	s.walk(&w, sp)
	return w.m, w.dims, w.m.Validate()
}

// finish derives the SuperNet from its SubNets at the uniform specs: a
// layer's maxima are the largest extents they give it and its cut points
// the distinct ones. OFA choices are set per stage and width is global,
// so the uniform SubNets reach every extent any spec can. The same walks
// fix the FLOPs range the accuracy curve is normalized to.
func (s *SuperNet) finish() {
	for _, sp := range s.EnumerateUniform() {
		m, dims, err := s.subnet(sp)
		if err != nil {
			panic(fmt.Sprintf("supernet %s: %v", s.Name, err))
		}
		if s.Layers == nil {
			s.Layers = make([]ElasticLayer, len(dims))
		}
		for _, l := range m.Layers {
			if l.BlockID < 0 {
				continue
			}
			e, d := &s.Layers[l.BlockID], dims[l.BlockID]
			e.Name, e.Kind = l.Name, l.Kind
			e.KMax, e.CMax = max(e.KMax, d.K), max(e.CMax, d.C)
			e.RMax, e.SMax = max(e.RMax, l.R), max(e.SMax, l.S)
			e.KCuts = addCut(e.KCuts, d.K)
			e.CCuts = addCut(e.CCuts, d.C)
			e.ACuts = addCut(e.ACuts, d.Area)
		}
		f := m.TotalFLOPs()
		if s.flopsLo == 0 || f < s.flopsLo {
			s.flopsLo = f
		}
		s.flopsHi = max(s.flopsHi, f)
	}
	for i := range s.Layers {
		l := &s.Layers[i]
		l.KCuts = normalizeCuts(l.KCuts, l.KMax)
		l.CCuts = normalizeCuts(l.CCuts, l.CMax)
		l.ACuts = normalizeCuts(l.ACuts, l.RMax*l.SMax)
	}
	s.buildCells()
}

// buildCells derives the cell table from the layer cut points.
func (s *SuperNet) buildCells() {
	s.Cells = s.Cells[:0]
	s.layerCells = make([][]int, len(s.Layers))
	for li := range s.Layers {
		l := &s.Layers[li]
		kCuts := l.KCuts
		cCuts := l.CCuts
		aCuts := l.ACuts
		kLo := 0
		for _, kHi := range kCuts {
			cLo := 0
			for _, cHi := range cCuts {
				aLo := 0
				for _, aHi := range aCuts {
					cell := Cell{
						Layer: li,
						KLo:   kLo, KHi: kHi,
						CLo: cLo, CHi: cHi,
						ALo: aLo, AHi: aHi,
						Bytes: int64(kHi-kLo) * int64(cHi-cLo) * int64(aHi-aLo),
					}
					if cell.Bytes > 0 {
						s.Cells = append(s.Cells, cell)
						s.layerCells[li] = append(s.layerCells[li], len(s.Cells)-1)
					}
					aLo = aHi
				}
				cLo = cHi
			}
			kLo = kHi
		}
	}
}

// addCut appends c to cuts unless it is already there.
func addCut(cuts []int, c int) []int {
	if slices.Contains(cuts, c) {
		return cuts
	}
	return append(cuts, c)
}

// normalizeCuts sorts, dedups and validates cut points ending at max.
func normalizeCuts(cuts []int, max int) []int {
	out := append(make([]int, 0, len(cuts)+1), max)
	for _, c := range cuts {
		if c > 0 && c < max {
			out = append(out, c)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// round8 rounds n to the nearest positive multiple of 8, the channel
// granularity used by the OFA supernets (and convenient for the DPE array).
func round8(n float64) int {
	v := int(n/8.0+0.5) * 8
	if v < 8 {
		v = 8
	}
	return v
}
