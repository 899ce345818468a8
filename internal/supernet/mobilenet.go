package supernet

import (
	"fmt"

	"sushi/internal/nn"
)

// mbv3Config pins the OFA-MobileNetV3 elastic space (§2.1, §5.1): 5 stages
// of inverted-bottleneck (MBConv) blocks, depth ∈ [2, 4] per stage, expand
// ratio ∈ {3, 4, 6}, depthwise kernel ∈ {3, 5, 7}. Width is not elastic in
// this family. Kernel elasticity shares weights center-out: the 3x3 kernel
// is the center of the 5x5, which is the center of the 7x7, so the
// kernel-area axis has cut points {9, 25, 49}.
type mbv3Config struct {
	inputRes    int
	stemCh      int
	stageOut    []int
	stageBlocks []int
	stageStride []int
	expand      []float64
	kernels     []int
	minDepth    int
	headCh      int
	featCh      int
	classes     int
}

func defaultMBV3Config() mbv3Config {
	return mbv3Config{
		inputRes:    224,
		stemCh:      16,
		stageOut:    []int{24, 40, 80, 112, 160},
		stageBlocks: []int{4, 4, 4, 4, 4},
		stageStride: []int{2, 2, 2, 1, 2},
		expand:      []float64{3, 4, 6},
		kernels:     []int{3, 5, 7},
		minDepth:    2,
		headCh:      960,
		featCh:      1280,
		classes:     1000,
	}
}

// NewOFAMobileNetV3 constructs the weight-shared MobileNetV3 SuperNet.
func NewOFAMobileNetV3() *SuperNet {
	cfg := defaultMBV3Config()
	s := &SuperNet{
		Name:          "ofa-mobilenetv3",
		Kind:          MobileNetV3,
		StageDepths:   append([]int(nil), cfg.stageBlocks...),
		MinDepth:      cfg.minDepth,
		ExpandChoices: append([]float64(nil), cfg.expand...),
		KernelChoices: append([]int(nil), cfg.kernels...),
		accLo:         75.9,
		accHi:         80.1,
	}
	s.walk = func(w *walker, sp SubNetSpec) { walkMBV3(w, s.Name, cfg, sp) }
	s.finish()
	return s
}

// walkMBV3 emits the MobileNetV3 SubNet at sp: a 3x3/2 stem conv and a
// non-elastic 3x3 depthwise + pointwise first block at stem channels
// (MobileNetV3's first 1x expand block), five stages of MBConv blocks
// (1x1 expand, kxk depthwise strided in the first block, 1x1 project,
// residual add after the first block), then a 1x1 head conv, global
// average pool, 1x1 feature mix and classifier.
func walkMBV3(w *walker, name string, cfg mbv3Config, sp SubNetSpec) {
	w.m.Name = fmt.Sprintf("%s/d%v-e%v-k%v", name, sp.Depth, sp.ExpandIdx, sp.KernelIdx)

	res := cfg.inputRes
	stemOut := res / 2
	w.weight(true, nn.Layer{
		Name: "stem.conv", Kind: nn.Conv, C: 3, K: cfg.stemCh, R: 3, S: 3,
		InH: res, InW: res, OutH: stemOut, OutW: stemOut, Stride: 2, Pad: 1,
	})
	w.weight(true, nn.Layer{
		Name: "stem.dw", Kind: nn.DepthwiseConv, C: cfg.stemCh, K: cfg.stemCh, R: 3, S: 3,
		InH: stemOut, InW: stemOut, OutH: stemOut, OutW: stemOut, Stride: 1, Pad: 1,
	})
	w.weight(true, nn.Layer{
		Name: "stem.pw", Kind: nn.Conv, C: cfg.stemCh, K: cfg.stemCh, R: 1, S: 1,
		InH: stemOut, InW: stemOut, OutH: stemOut, OutW: stemOut, Stride: 1,
	})

	inCh := cfg.stemCh
	inRes := stemOut
	for st, outCh := range cfg.stageOut {
		stride := cfg.stageStride[st]
		outRes := inRes / stride
		kernel := cfg.kernels[sp.KernelIdx[st]]
		for b := 0; b < cfg.stageBlocks[st]; b++ {
			on := b < sp.Depth[st]
			blkIn := outCh
			blkStride := 1
			blkInRes := outRes
			if b == 0 {
				blkIn = inCh
				blkStride = stride
				blkInRes = inRes
			}
			mid := round8(float64(blkIn) * cfg.expand[sp.ExpandIdx[st]])
			prefix := "" // a block the spec leaves out needs no names
			if on {
				prefix = fmt.Sprintf("stage%d.block%d", st+1, b)
			}
			w.weight(on, nn.Layer{
				Name: prefix + ".expand", Kind: nn.Conv, C: blkIn, K: mid, R: 1, S: 1,
				InH: blkInRes, InW: blkInRes, OutH: blkInRes, OutW: blkInRes, Stride: 1,
			})
			w.weight(on, nn.Layer{
				Name: prefix + ".dw", Kind: nn.DepthwiseConv, C: mid, K: mid, R: kernel, S: kernel,
				InH: blkInRes, InW: blkInRes, OutH: outRes, OutW: outRes, Stride: blkStride, Pad: kernel / 2,
			})
			w.weight(on, nn.Layer{
				Name: prefix + ".project", Kind: nn.Conv, C: mid, K: outCh, R: 1, S: 1,
				InH: outRes, InW: outRes, OutH: outRes, OutW: outRes, Stride: 1,
			})
			w.op(on && b > 0, nn.Layer{
				Name: prefix + ".add", Kind: nn.Add, C: outCh, K: outCh, R: 1, S: 1,
				InH: outRes, InW: outRes, OutH: outRes, OutW: outRes, Stride: 1,
			})
		}
		inCh = outCh
		inRes = outRes
	}

	w.weight(true, nn.Layer{
		Name: "head.conv", Kind: nn.Conv, C: inCh, K: cfg.headCh, R: 1, S: 1,
		InH: inRes, InW: inRes, OutH: inRes, OutW: inRes, Stride: 1,
	})
	w.op(true, nn.Layer{
		Name: "gap", Kind: nn.Pool, C: cfg.headCh, K: cfg.headCh, R: inRes, S: inRes,
		InH: inRes, InW: inRes, OutH: 1, OutW: 1, Stride: 1,
	})
	w.weight(true, nn.Layer{
		Name: "head.feature", Kind: nn.Linear, C: cfg.headCh, K: cfg.featCh, R: 1, S: 1,
		InH: 1, InW: 1, OutH: 1, OutW: 1, Stride: 1,
	})
	w.weight(true, nn.Layer{
		Name: "fc", Kind: nn.Linear, C: cfg.featCh, K: cfg.classes, R: 1, S: 1,
		InH: 1, InW: 1, OutH: 1, OutW: 1, Stride: 1,
	})
}
