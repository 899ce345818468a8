package infer

import (
	"testing"

	"sushi/internal/supernet"
	"sushi/internal/tensor"
)

func TestKernelAreaIndexCenterCrop(t *testing.T) {
	// The central 3x3 of a 7x7 kernel must map to indices 0..8, the 5x5
	// to 0..24, the 7x7 to 0..48 — and the mapping must agree across
	// kernel sizes (OFA center-crop sharing).
	seen := map[int]bool{}
	for r := 0; r < 3; r++ {
		for s := 0; s < 3; s++ {
			idx := kernelAreaIndex(7, 3, r, s)
			if idx < 0 || idx > 8 {
				t.Fatalf("3x3-in-7 (%d,%d) -> %d outside 0..8", r, s, idx)
			}
			if seen[idx] {
				t.Fatalf("index %d repeated", idx)
			}
			seen[idx] = true
		}
	}
	// 5x5 positions must include the same nine central indices at the
	// shifted coordinates.
	for r := 0; r < 3; r++ {
		for s := 0; s < 3; s++ {
			if kernelAreaIndex(7, 5, r+1, s+1) != kernelAreaIndex(7, 3, r, s) {
				t.Fatalf("center of 5x5 disagrees with 3x3 at (%d,%d)", r, s)
			}
			if kernelAreaIndex(7, 7, r+2, s+2) != kernelAreaIndex(7, 3, r, s) {
				t.Fatalf("center of 7x7 disagrees with 3x3 at (%d,%d)", r, s)
			}
		}
	}
	// Full 7x7 must be a bijection onto 0..48.
	all := map[int]bool{}
	for r := 0; r < 7; r++ {
		for s := 0; s < 7; s++ {
			idx := kernelAreaIndex(7, 7, r, s)
			if idx < 0 || idx > 48 || all[idx] {
				t.Fatalf("7x7 (%d,%d) -> %d invalid or repeated", r, s, idx)
			}
			all[idx] = true
		}
	}
}

func TestWeightSharingAcrossSubNets(t *testing.T) {
	// The defining WS-DNN property: two SubNets materialize *identical*
	// weight values on their shared prefix region of every layer.
	s := supernet.NewOFAMobileNetV3()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWeightStore(s, 1)
	small, large := fr[0], fr[len(fr)-1]
	// Match layers by elastic index (BlockID).
	largeByBlock := map[int]*tensor.Int8{}
	for i := range large.Model.Layers {
		if l := &large.Model.Layers[i]; l.WeightBytes() > 0 {
			tns, err := ws.LayerWeights(l.BlockID, panelDims(l), l.R)
			if err != nil {
				t.Fatal(err)
			}
			largeByBlock[l.BlockID] = tns
		}
	}
	checked := 0
	for i := range small.Model.Layers {
		l := &small.Model.Layers[i]
		if l.WeightBytes() == 0 {
			continue
		}
		bid := l.BlockID
		tSmall, err := ws.LayerWeights(bid, panelDims(l), l.R)
		if err != nil {
			t.Fatal(err)
		}
		tLarge, ok := largeByBlock[bid]
		if !ok {
			continue // layer absent in the larger SubNet's depth? impossible for MobV3 A⊂G, but be safe
		}
		ss, ls := tSmall.Shape, tLarge.Shape
		if ss.N > ls.N || ss.C > ls.C || ss.H > ls.H {
			t.Fatalf("layer %d: small dims %v exceed large %v", bid, ss, ls)
		}
		// The small kernel sits at the center of the large one.
		off := (ls.H - ss.H) / 2
		for k := 0; k < ss.N; k++ {
			for c := 0; c < ss.C; c++ {
				for r := 0; r < ss.H; r++ {
					for q := 0; q < ss.W; q++ {
						if tSmall.At(k, c, r, q) != tLarge.At(k, c, r+off, q+off) {
							t.Fatalf("layer %d: shared weight differs at (%d,%d,%d,%d)", bid, k, c, r, q)
						}
					}
				}
			}
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d layers checked for sharing", checked)
	}
}

func TestWeightStoreDeterministic(t *testing.T) {
	s := supernet.NewOFAMobileNetV3()
	a := NewWeightStore(s, 7)
	b := NewWeightStore(s, 7)
	d := supernet.LayerDims{K: 16, C: 3, Area: 9}
	w1, err := a.LayerWeights(0, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := b.LayerWeights(0, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w1.Data {
		if w1.Data[i] != w2.Data[i] {
			t.Fatal("same seed produced different weights")
		}
	}
	c := NewWeightStore(s, 8)
	w3, err := c.LayerWeights(0, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range w1.Data {
		if w1.Data[i] != w3.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical weights")
	}
}

func TestLayerWeightsValidation(t *testing.T) {
	s := supernet.NewOFAMobileNetV3()
	ws := NewWeightStore(s, 1)
	if _, err := ws.LayerWeights(-1, supernet.LayerDims{K: 1, C: 1}, 1); err == nil {
		t.Error("negative layer accepted")
	}
	if _, err := ws.LayerWeights(0, supernet.LayerDims{K: 0, C: 1}, 1); err == nil {
		t.Error("zero K accepted")
	}
	if _, err := ws.LayerWeights(0, supernet.LayerDims{K: 1 << 20, C: 1}, 1); err == nil {
		t.Error("oversized K accepted")
	}
}

func TestForwardMobV3(t *testing.T) {
	s := supernet.NewOFAMobileNetV3()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(NewWeightStore(s, 1))
	sn := fr[0]
	in := tensor.RandomInt8(tensor.Shape{N: 1, C: 3, H: 224, W: 224}, 99)
	out, err := e.Forward(sn, in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Shape != (tensor.Shape{N: 1, C: 1000, H: 1, W: 1}) {
		t.Fatalf("logits shape %v", out.Shape)
	}
	// Deterministic across runs.
	out2, err := e.Forward(sn, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out.Data {
		if out.Data[i] != out2.Data[i] {
			t.Fatal("forward pass not deterministic")
		}
	}
	// The logits must not be all-equal (information flowed end to end).
	allSame := true
	for _, v := range out.Data {
		if v != out.Data[0] {
			allSame = false
			break
		}
	}
	if allSame {
		t.Fatal("degenerate logits (all equal)")
	}
}

func TestForwardDistinguishesInputs(t *testing.T) {
	s := supernet.NewOFAMobileNetV3()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(NewWeightStore(s, 1))
	a := tensor.RandomInt8(tensor.Shape{N: 1, C: 3, H: 224, W: 224}, 1)
	b := tensor.RandomInt8(tensor.Shape{N: 1, C: 3, H: 224, W: 224}, 2)
	outA, err := e.Forward(fr[0], a)
	if err != nil {
		t.Fatal(err)
	}
	outB, err := e.Forward(fr[0], b)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range outA.Data {
		if outA.Data[i] != outB.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different inputs produced identical logits")
	}
}

func TestForwardResNet50(t *testing.T) {
	if testing.Short() {
		t.Skip("ResNet50 forward pass is slow in pure Go")
	}
	s := supernet.NewOFAResNet50()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(NewWeightStore(s, 1))
	in := tensor.RandomInt8(tensor.Shape{N: 1, C: 3, H: 224, W: 224}, 5)
	out, err := e.Forward(fr[0], in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Shape != (tensor.Shape{N: 1, C: 1000, H: 1, W: 1}) {
		t.Fatalf("logits shape %v", out.Shape)
	}
}

func TestForwardRejectsBadInput(t *testing.T) {
	s := supernet.NewOFAMobileNetV3()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(NewWeightStore(s, 1))
	bad := tensor.RandomInt8(tensor.Shape{N: 1, C: 4, H: 224, W: 224}, 1)
	if _, err := e.Forward(fr[0], bad); err == nil {
		t.Error("wrong channel count accepted")
	}
	small := tensor.RandomInt8(tensor.Shape{N: 1, C: 3, H: 32, W: 32}, 1)
	if _, err := e.Forward(fr[0], small); err == nil {
		t.Error("wrong resolution accepted")
	}
	if _, err := e.Forward(nil, small); err == nil {
		t.Error("nil subnet accepted")
	}
}
