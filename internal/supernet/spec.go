package supernet

import (
	"fmt"
)

// SubNetSpec selects one SubNet out of a SuperNet via its elastic
// dimensions. Depth is per stage; ExpandIdx and KernelIdx are per stage as
// well (applied to every block in the stage), which spans the Pareto
// frontier the paper serves while keeping the spec compact. WidthIdx picks
// the global width multiplier (ResNet50 family only).
type SubNetSpec struct {
	// Depth[s] selects the top Depth[s] blocks of stage s.
	Depth []int
	// ExpandIdx[s] indexes SuperNet.ExpandChoices for stage s's blocks.
	ExpandIdx []int
	// KernelIdx[s] indexes SuperNet.KernelChoices (MobileNetV3 only).
	KernelIdx []int
	// WidthIdx indexes SuperNet.WidthChoices (ResNet50 only).
	WidthIdx int
}

// UniformSpec builds a spec applying the same depth, expand index and
// kernel index to every stage.
func (s *SuperNet) UniformSpec(depth, expandIdx, kernelIdx, widthIdx int) SubNetSpec {
	n := len(s.StageDepths)
	sp := SubNetSpec{
		Depth:     make([]int, n),
		ExpandIdx: make([]int, n),
		WidthIdx:  widthIdx,
	}
	for i := range sp.Depth {
		sp.Depth[i] = depth
		sp.ExpandIdx[i] = expandIdx
	}
	if len(s.KernelChoices) > 0 {
		sp.KernelIdx = make([]int, n)
		for i := range sp.KernelIdx {
			sp.KernelIdx[i] = kernelIdx
		}
	}
	return sp
}

// Validate checks the spec against the supernet's elastic ranges.
func (s *SuperNet) Validate(sp SubNetSpec) error {
	if len(sp.Depth) != len(s.StageDepths) {
		return fmt.Errorf("supernet %s: spec has %d stages, want %d", s.Name, len(sp.Depth), len(s.StageDepths))
	}
	if len(sp.ExpandIdx) != len(s.StageDepths) {
		return fmt.Errorf("supernet %s: spec has %d expand entries, want %d", s.Name, len(sp.ExpandIdx), len(s.StageDepths))
	}
	for i, d := range sp.Depth {
		if d < s.MinDepth || d > s.StageDepths[i] {
			return fmt.Errorf("supernet %s: stage %d depth %d outside [%d, %d]", s.Name, i, d, s.MinDepth, s.StageDepths[i])
		}
	}
	for i, e := range sp.ExpandIdx {
		if e < 0 || e >= len(s.ExpandChoices) {
			return fmt.Errorf("supernet %s: stage %d expand index %d outside [0, %d)", s.Name, i, e, len(s.ExpandChoices))
		}
	}
	if len(s.KernelChoices) > 0 {
		if len(sp.KernelIdx) != len(s.StageDepths) {
			return fmt.Errorf("supernet %s: spec has %d kernel entries, want %d", s.Name, len(sp.KernelIdx), len(s.StageDepths))
		}
		for i, k := range sp.KernelIdx {
			if k < 0 || k >= len(s.KernelChoices) {
				return fmt.Errorf("supernet %s: stage %d kernel index %d outside [0, %d)", s.Name, i, k, len(s.KernelChoices))
			}
		}
	}
	if len(s.WidthChoices) > 0 && (sp.WidthIdx < 0 || sp.WidthIdx >= len(s.WidthChoices)) {
		return fmt.Errorf("supernet %s: width index %d outside [0, %d)", s.Name, sp.WidthIdx, len(s.WidthChoices))
	}
	return nil
}

// EnumerateUniform returns every uniform spec of the supernet (all
// combinations of depth x expand x kernel x width applied uniformly),
// useful for sweeps and candidate generation.
func (s *SuperNet) EnumerateUniform() []SubNetSpec {
	var out []SubNetSpec
	kernelN := len(s.KernelChoices)
	if kernelN == 0 {
		kernelN = 1
	}
	widthN := len(s.WidthChoices)
	if widthN == 0 {
		widthN = 1
	}
	maxDepth := 0
	for _, d := range s.StageDepths {
		if d > maxDepth {
			maxDepth = d
		}
	}
	for d := s.MinDepth; d <= maxDepth; d++ {
		for e := 0; e < len(s.ExpandChoices); e++ {
			for k := 0; k < kernelN; k++ {
				for w := 0; w < widthN; w++ {
					sp := s.UniformSpec(d, e, k, w)
					// Clamp per-stage depth to the stage maximum.
					for i := range sp.Depth {
						if sp.Depth[i] > s.StageDepths[i] {
							sp.Depth[i] = s.StageDepths[i]
						}
					}
					out = append(out, sp)
				}
			}
		}
	}
	return out
}

// RandomSpec draws a uniformly random, per-stage-independent spec — the
// sampling the paper's OFA substrate uses during training. Deterministic
// given the seed.
func (s *SuperNet) RandomSpec(seed int64) SubNetSpec {
	rng := newSplitMix(uint64(seed))
	n := len(s.StageDepths)
	sp := SubNetSpec{
		Depth:     make([]int, n),
		ExpandIdx: make([]int, n),
	}
	for i := 0; i < n; i++ {
		span := s.StageDepths[i] - s.MinDepth + 1
		sp.Depth[i] = s.MinDepth + int(rng.next()%uint64(span))
		sp.ExpandIdx[i] = int(rng.next() % uint64(len(s.ExpandChoices)))
	}
	if len(s.KernelChoices) > 0 {
		sp.KernelIdx = make([]int, n)
		for i := 0; i < n; i++ {
			sp.KernelIdx[i] = int(rng.next() % uint64(len(s.KernelChoices)))
		}
	}
	if len(s.WidthChoices) > 0 {
		sp.WidthIdx = int(rng.next() % uint64(len(s.WidthChoices)))
	}
	return sp
}

// splitMix is a tiny deterministic PRNG for spec sampling.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &splitMix{s: seed}
}

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
