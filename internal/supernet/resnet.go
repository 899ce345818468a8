package supernet

import (
	"fmt"

	"sushi/internal/nn"
)

// resnetConfig pins the OFA-ResNet50 elastic space used by the paper
// (§2.1, §5.1): 4 stages of bottleneck blocks, depth ∈ [2, 4] blocks per
// stage, expand ratio ∈ {0.20, 0.25, 0.35} (mid channels relative to the
// stage's output channels; 0.25 reproduces vanilla ResNet50), width
// multiplier ∈ {0.65, 0.8, 1.0}.
type resnetConfig struct {
	inputRes    int
	stageOut    []int // output channels per stage at width 1.0
	stageBlocks []int // max blocks per stage
	stageStride []int // stride of the first block in each stage
	expand      []float64
	width       []float64
	minDepth    int
	classes     int
}

func defaultResNetConfig() resnetConfig {
	return resnetConfig{
		inputRes:    224,
		stageOut:    []int{256, 512, 1024, 2048},
		stageBlocks: []int{4, 4, 4, 4},
		stageStride: []int{1, 2, 2, 2},
		expand:      []float64{0.20, 0.25, 0.35},
		width:       []float64{0.65, 0.8, 1.0},
		minDepth:    2,
		classes:     1000,
	}
}

// NewOFAResNet50 constructs the weight-shared ResNet50 SuperNet.
func NewOFAResNet50() *SuperNet {
	cfg := defaultResNetConfig()
	s := &SuperNet{
		Name:          "ofa-resnet50",
		Kind:          ResNet50,
		StageDepths:   append([]int(nil), cfg.stageBlocks...),
		MinDepth:      cfg.minDepth,
		ExpandChoices: append([]float64(nil), cfg.expand...),
		WidthChoices:  append([]float64(nil), cfg.width...),
		accLo:         75.4,
		accHi:         79.9,
	}
	s.walk = func(w *walker, sp SubNetSpec) { walkResNet(w, s.Name, cfg, sp) }
	s.finish()
	return s
}

// walkResNet emits the ResNet50 SubNet at sp: a 7x7/2 stem conv and 3x3/2
// max pool, four stages of bottleneck blocks (1x1 reduce, 3x3 spatial
// strided in the first block, 1x1 expand, plus a strided 1x1 downsample
// shortcut in the first block), then global average pool and classifier.
func walkResNet(w *walker, name string, cfg resnetConfig, sp SubNetSpec) {
	width := cfg.width[sp.WidthIdx]
	w.m.Name = fmt.Sprintf("%s/d%v-e%v-w%.2f", name, sp.Depth, sp.ExpandIdx, width)

	stemCh := round8(64 * width)
	res := cfg.inputRes
	stemOut := res / 2
	w.weight(true, nn.Layer{
		Name: "stem.conv", Kind: nn.Conv, C: 3, K: stemCh, R: 7, S: 7,
		InH: res, InW: res, OutH: stemOut, OutW: stemOut, Stride: 2, Pad: 3,
	})
	poolOut := stemOut / 2
	w.op(true, nn.Layer{
		Name: "stem.pool", Kind: nn.Pool, C: stemCh, K: stemCh, R: 3, S: 3,
		InH: stemOut, InW: stemOut, OutH: poolOut, OutW: poolOut, Stride: 2, Pad: 1,
	})

	inRes := poolOut
	inCh := stemCh
	for st, outBase := range cfg.stageOut {
		stride := cfg.stageStride[st]
		outRes := inRes / stride
		outCh := round8(float64(outBase) * width)
		mid := round8(float64(outBase) * width * cfg.expand[sp.ExpandIdx[st]])
		for b := 0; b < cfg.stageBlocks[st]; b++ {
			on := b < sp.Depth[st]
			blkStride := 1
			blkInCh := outCh
			blkInRes := outRes
			if b == 0 {
				blkStride = stride
				blkInCh = inCh
				blkInRes = inRes
			}
			prefix := "" // a block the spec leaves out needs no names
			if on {
				prefix = fmt.Sprintf("stage%d.block%d", st+1, b)
			}
			w.weight(on, nn.Layer{
				Name: prefix + ".conv1", Kind: nn.Conv, C: blkInCh, K: mid, R: 1, S: 1,
				InH: blkInRes, InW: blkInRes, OutH: blkInRes, OutW: blkInRes, Stride: 1,
			})
			w.weight(on, nn.Layer{
				Name: prefix + ".conv2", Kind: nn.Conv, C: mid, K: mid, R: 3, S: 3,
				InH: blkInRes, InW: blkInRes, OutH: outRes, OutW: outRes, Stride: blkStride, Pad: 1,
			})
			w.weight(on, nn.Layer{
				Name: prefix + ".conv3", Kind: nn.Conv, C: mid, K: outCh, R: 1, S: 1,
				InH: outRes, InW: outRes, OutH: outRes, OutW: outRes, Stride: 1,
			})
			if b == 0 {
				w.weight(on, nn.Layer{
					Name: prefix + ".downsample", Kind: nn.Conv, C: blkInCh, K: outCh, R: 1, S: 1,
					InH: blkInRes, InW: blkInRes, OutH: outRes, OutW: outRes, Stride: blkStride,
				})
			}
			w.op(on, nn.Layer{
				Name: prefix + ".add", Kind: nn.Add, C: outCh, K: outCh, R: 1, S: 1,
				InH: outRes, InW: outRes, OutH: outRes, OutW: outRes, Stride: 1,
			})
		}
		inCh = outCh
		inRes = outRes
	}

	w.op(true, nn.Layer{
		Name: "gap", Kind: nn.Pool, C: inCh, K: inCh, R: inRes, S: inRes,
		InH: inRes, InW: inRes, OutH: 1, OutW: 1, Stride: 1,
	})
	w.weight(true, nn.Layer{
		Name: "fc", Kind: nn.Linear, C: inCh, K: cfg.classes, R: 1, S: 1,
		InH: 1, InW: 1, OutH: 1, OutW: 1, Stride: 1,
	})
}
