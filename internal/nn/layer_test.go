package nn

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func conv3x3(c, k, in, out, stride int) Layer {
	return Layer{Name: "t", Kind: Conv, C: c, K: k, R: 3, S: 3,
		InH: in, InW: in, OutH: out, OutW: out, Stride: stride, Pad: 1, BlockID: -1}
}

func TestLayerMACs(t *testing.T) {
	tests := []struct {
		name string
		l    Layer
		want int64
	}{
		{
			"conv3x3",
			conv3x3(64, 64, 56, 56, 1),
			64 * 64 * 3 * 3 * 56 * 56,
		},
		{
			"pointwise",
			Layer{Kind: Conv, C: 256, K: 64, R: 1, S: 1, InH: 56, InW: 56, OutH: 56, OutW: 56, Stride: 1},
			256 * 64 * 56 * 56,
		},
		{
			"depthwise",
			Layer{Kind: DepthwiseConv, C: 96, K: 96, R: 3, S: 3, InH: 28, InW: 28, OutH: 28, OutW: 28, Stride: 1},
			96 * 3 * 3 * 28 * 28,
		},
		{
			"linear",
			Layer{Kind: Linear, C: 2048, K: 1000, R: 1, S: 1, InH: 1, InW: 1, OutH: 1, OutW: 1, Stride: 1},
			2048 * 1000,
		},
		{
			"add",
			Layer{Kind: Add, C: 256, K: 256, R: 1, S: 1, InH: 56, InW: 56, OutH: 56, OutW: 56, Stride: 1},
			256 * 56 * 56,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.l.MACs(); got != tc.want {
				t.Errorf("MACs = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestLayerFLOPsDoublesMACsForConv(t *testing.T) {
	l := conv3x3(8, 8, 14, 14, 1)
	if l.FLOPs() != 2*l.MACs() {
		t.Errorf("conv FLOPs = %d, want 2*MACs = %d", l.FLOPs(), 2*l.MACs())
	}
	p := Layer{Kind: Pool, C: 8, K: 8, R: 2, S: 2, InH: 4, InW: 4, OutH: 2, OutW: 2, Stride: 2}
	if p.FLOPs() != p.MACs() {
		t.Errorf("pool FLOPs = %d, want MACs = %d", p.FLOPs(), p.MACs())
	}
}

func TestLayerWeightBytes(t *testing.T) {
	l := conv3x3(64, 128, 28, 28, 1)
	if got, want := l.WeightBytes(), int64(128*64*3*3); got != want {
		t.Errorf("conv weight bytes = %d, want %d", got, want)
	}
	dw := Layer{Kind: DepthwiseConv, C: 96, K: 96, R: 5, S: 5, InH: 14, InW: 14, OutH: 14, OutW: 14, Stride: 1}
	if got, want := dw.WeightBytes(), int64(96*5*5); got != want {
		t.Errorf("dw weight bytes = %d, want %d", got, want)
	}
	add := Layer{Kind: Add, C: 64, K: 64, R: 1, S: 1, InH: 7, InW: 7, OutH: 7, OutW: 7}
	if add.WeightBytes() != 0 {
		t.Error("add must carry no weights")
	}
}

func TestLayerActivationBytes(t *testing.T) {
	l := conv3x3(3, 64, 224, 112, 2)
	if got, want := l.InputBytes(), int64(3*224*224); got != want {
		t.Errorf("input bytes = %d, want %d", got, want)
	}
	if got, want := l.OutputBytes(), int64(64*112*112); got != want {
		t.Errorf("output bytes = %d, want %d", got, want)
	}
	add := Layer{Kind: Add, C: 64, K: 64, R: 1, S: 1, InH: 7, InW: 7, OutH: 7, OutW: 7}
	if got, want := add.InputBytes(), int64(2*64*7*7); got != want {
		t.Errorf("add input bytes = %d, want %d (two operands)", got, want)
	}
}

func TestArithmeticIntensityOrdering(t *testing.T) {
	// A large 3x3 conv must have much higher arithmetic intensity than a
	// depthwise conv of the same spatial size — the core observation of
	// Fig. 2 (depthwise/latter layers are memory-bound).
	big := conv3x3(256, 256, 14, 14, 1)
	dw := Layer{Kind: DepthwiseConv, C: 256, K: 256, R: 3, S: 3, InH: 14, InW: 14, OutH: 14, OutW: 14, Stride: 1}
	if big.ArithmeticIntensity() <= dw.ArithmeticIntensity() {
		t.Errorf("conv AI %.2f should exceed depthwise AI %.2f",
			big.ArithmeticIntensity(), dw.ArithmeticIntensity())
	}
	if dw.ArithmeticIntensity() > 20 {
		t.Errorf("depthwise AI %.2f unexpectedly high (should be memory-bound territory)", dw.ArithmeticIntensity())
	}
}

func TestArithmeticIntensityQuick(t *testing.T) {
	// AI must always be positive and equal FLOPs/TotalBytes.
	f := func(cRaw, kRaw, hRaw uint8) bool {
		c := int(cRaw)%64 + 1
		k := int(kRaw)%64 + 1
		h := int(hRaw)%32 + 1
		l := Layer{Kind: Conv, C: c, K: k, R: 3, S: 3, InH: h + 2, InW: h + 2, OutH: h, OutW: h, Stride: 1}
		ai := l.ArithmeticIntensity()
		want := float64(l.FLOPs()) / float64(l.TotalBytes())
		return ai > 0 && ai == want
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLayerValidate(t *testing.T) {
	good := conv3x3(8, 8, 14, 14, 1)
	if err := good.Validate(); err != nil {
		t.Errorf("valid layer rejected: %v", err)
	}
	bad := []Layer{
		{Kind: Conv, C: 0, K: 8, R: 3, S: 3, InH: 4, InW: 4, OutH: 4, OutW: 4},
		{Kind: Conv, C: 8, K: 8, R: 0, S: 3, InH: 4, InW: 4, OutH: 4, OutW: 4},
		{Kind: Conv, C: 8, K: 8, R: 3, S: 3, InH: 0, InW: 4, OutH: 4, OutW: 4},
		{Kind: DepthwiseConv, C: 8, K: 16, R: 3, S: 3, InH: 4, InW: 4, OutH: 4, OutW: 4},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad layer %d accepted", i)
		}
	}
}

func TestLayerKindString(t *testing.T) {
	want := map[LayerKind]string{Conv: "conv", DepthwiseConv: "dwconv", Linear: "linear", Pool: "pool", Add: "add"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if got := LayerKind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestModelAggregates(t *testing.T) {
	m := Model{Name: "m", Layers: []Layer{
		conv3x3(3, 16, 32, 32, 1),
		{Kind: Pool, C: 16, K: 16, R: 2, S: 2, InH: 32, InW: 32, OutH: 16, OutW: 16, Stride: 2},
		conv3x3(16, 32, 16, 16, 1),
		{Kind: Linear, C: 32, K: 10, R: 1, S: 1, InH: 1, InW: 1, OutH: 1, OutW: 1, Stride: 1},
	}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	var flops, wb int64
	for i := range m.Layers {
		flops += m.Layers[i].FLOPs()
		wb += m.Layers[i].WeightBytes()
	}
	if m.TotalFLOPs() != flops {
		t.Errorf("TotalFLOPs = %d, want %d", m.TotalFLOPs(), flops)
	}
	if m.TotalWeightBytes() != wb {
		t.Errorf("TotalWeightBytes = %d, want %d", m.TotalWeightBytes(), wb)
	}
	if got := m.ConvLayers(); len(got) != 2 {
		t.Errorf("ConvLayers = %v, want 2 entries", got)
	}
}

func TestModelValidateEmpty(t *testing.T) {
	m := Model{Name: "empty"}
	if err := m.Validate(); err == nil {
		t.Fatal("empty model must be invalid")
	}
	m2 := Model{Name: "bad", Layers: []Layer{{Kind: Conv}}}
	if err := m2.Validate(); err == nil {
		t.Fatal("model with invalid layer must be invalid")
	}
}
