package tensor

import (
	"testing"
)

func TestShapeElems(t *testing.T) {
	tests := []struct {
		s    Shape
		want int
	}{
		{Shape{1, 1, 1, 1}, 1},
		{Shape{1, 3, 224, 224}, 150528},
		{Shape{64, 64, 3, 3}, 36864},
		{Shape{2, 8, 4, 4}, 256},
	}
	for _, tc := range tests {
		if got := tc.s.Elems(); got != tc.want {
			t.Errorf("Elems(%v) = %d, want %d", tc.s, got, tc.want)
		}
	}
}

func TestShapeValid(t *testing.T) {
	if !(Shape{1, 1, 1, 1}).Valid() {
		t.Error("unit shape should be valid")
	}
	for _, s := range []Shape{{0, 1, 1, 1}, {1, 0, 1, 1}, {1, 1, 0, 1}, {1, 1, 1, 0}, {-1, 1, 1, 1}} {
		if s.Valid() {
			t.Errorf("shape %v should be invalid", s)
		}
	}
}

func TestNewInt8PanicsOnInvalidShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid shape")
		}
	}()
	NewInt8(Shape{0, 1, 1, 1})
}

func TestInt8SetAtRoundTrip(t *testing.T) {
	tt := NewInt8(Shape{2, 3, 4, 5})
	v := int8(0)
	for n := 0; n < 2; n++ {
		for c := 0; c < 3; c++ {
			for h := 0; h < 4; h++ {
				for w := 0; w < 5; w++ {
					tt.Set(n, c, h, w, v)
					v++
				}
			}
		}
	}
	v = 0
	for n := 0; n < 2; n++ {
		for c := 0; c < 3; c++ {
			for h := 0; h < 4; h++ {
				for w := 0; w < 5; w++ {
					if got := tt.At(n, c, h, w); got != v {
						t.Fatalf("At(%d,%d,%d,%d) = %d, want %d", n, c, h, w, got, v)
					}
					v++
				}
			}
		}
	}
}

func TestOutDim(t *testing.T) {
	tests := []struct {
		in, k, s, p int
		want        int
	}{
		{224, 3, 1, 1, 224}, // same padding
		{224, 3, 2, 1, 112}, // stride-2 halving
		{7, 7, 1, 0, 1},     // full-size kernel
		{56, 1, 1, 0, 56},   // pointwise
		{14, 5, 2, 2, 7},    // 5x5 stride 2
	}
	for _, tc := range tests {
		if got := OutDim(tc.in, tc.k, tc.s, tc.p); got != tc.want {
			t.Errorf("OutDim(%d,%d,%d,%d) = %d, want %d", tc.in, tc.k, tc.s, tc.p, got, tc.want)
		}
	}
}

// naive3x3 computes a single known 3x3 convolution by hand for the
// smallest interesting case, to anchor Conv2D against an independent
// computation rather than itself.
func TestConv2DKnownValues(t *testing.T) {
	// 1x1x3x3 input = 1..9, single 3x3 kernel of all ones, no padding:
	// output = sum(1..9) = 45.
	in := NewInt8(Shape{1, 1, 3, 3})
	for i := range in.Data {
		in.Data[i] = int8(i + 1)
	}
	w := NewInt8(Shape{1, 1, 3, 3})
	for i := range w.Data {
		w.Data[i] = 1
	}
	out, err := Conv2D(in, w, 0, ConvParams{StrideH: 1, StrideW: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Shape != (Shape{1, 1, 1, 1}) {
		t.Fatalf("shape = %v, want [1 1 1 1]", out.Shape)
	}
	if out.Data[0] != 45 {
		t.Fatalf("conv = %d, want 45", out.Data[0])
	}
}

func TestConv2DZeroPointPaddingIsNeutral(t *testing.T) {
	// With zero point zp, padded positions must contribute nothing. Use a
	// constant input equal to zp: every output must be exactly 0.
	const zp = 3
	in := NewInt8(Shape{1, 2, 4, 4})
	for i := range in.Data {
		in.Data[i] = zp
	}
	w := RandomInt8(Shape{4, 2, 3, 3}, 7)
	out, err := Conv2D(in, w, zp, ConvParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data {
		if v != 0 {
			t.Fatalf("out[%d] = %d, want 0 (zp-neutral)", i, v)
		}
	}
}

func TestConv2DStrideAndPaddingShapes(t *testing.T) {
	in := RandomInt8(Shape{1, 3, 8, 8}, 1)
	w := RandomInt8(Shape{5, 3, 3, 3}, 2)
	out, err := Conv2D(in, w, 0, ConvParams{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := Shape{1, 5, 4, 4}
	if out.Shape != want {
		t.Fatalf("shape = %v, want %v", out.Shape, want)
	}
}

func TestConv2DDepthwise(t *testing.T) {
	// Depthwise: groups == C, each kernel sees exactly one channel.
	in := NewInt8(Shape{1, 2, 3, 3})
	for i := range in.Data {
		in.Data[i] = 1
	}
	w := NewInt8(Shape{2, 1, 3, 3})
	for i := 0; i < 9; i++ {
		w.Data[i] = 1 // channel 0 kernel: all ones
	}
	for i := 9; i < 18; i++ {
		w.Data[i] = 2 // channel 1 kernel: all twos
	}
	out, err := Conv2D(in, w, 0, ConvParams{StrideH: 1, StrideW: 1, Groups: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Data[out.index(0, 0, 0, 0)]; got != 9 {
		t.Errorf("dw channel 0 = %d, want 9", got)
	}
	if got := out.Data[out.index(0, 1, 0, 0)]; got != 18 {
		t.Errorf("dw channel 1 = %d, want 18", got)
	}
}

func TestConv2DGroupMismatch(t *testing.T) {
	in := RandomInt8(Shape{1, 3, 4, 4}, 1)
	w := RandomInt8(Shape{4, 3, 3, 3}, 2)
	if _, err := Conv2D(in, w, 0, ConvParams{StrideH: 1, StrideW: 1, Groups: 2}); err == nil {
		t.Fatal("expected group mismatch error")
	}
	w2 := RandomInt8(Shape{4, 2, 3, 3}, 2)
	if _, err := Conv2D(in, w2, 0, ConvParams{StrideH: 1, StrideW: 1}); err == nil {
		t.Fatal("expected channel mismatch error")
	}
}

func TestLinearKnownValues(t *testing.T) {
	in := NewInt8(Shape{1, 4, 1, 1})
	copy(in.Data, []int8{1, 2, 3, 4})
	w := NewInt8(Shape{2, 4, 1, 1})
	copy(w.Data, []int8{1, 1, 1, 1, 1, -1, 1, -1})
	out, err := Linear(in, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Data[out.index(0, 0, 0, 0)]; got != 10 {
		t.Errorf("linear[0] = %d, want 10", got)
	}
	if got := out.Data[out.index(0, 1, 0, 0)]; got != -2 {
		t.Errorf("linear[1] = %d, want -2", got)
	}
}

func TestLinearShapeMismatch(t *testing.T) {
	in := RandomInt8(Shape{1, 4, 1, 1}, 1)
	w := RandomInt8(Shape{2, 5, 1, 1}, 2)
	if _, err := Linear(in, w, 0); err == nil {
		t.Fatal("expected shape mismatch")
	}
}

func TestGlobalAvgPool(t *testing.T) {
	in := NewInt8(Shape{1, 1, 2, 2})
	copy(in.Data, []int8{1, 2, 3, 4})
	out := GlobalAvgPool(in, 0)
	if got := out.Data[out.index(0, 0, 0, 0)]; got != 10 {
		t.Errorf("gap sum = %d, want 10", got)
	}
	out2 := GlobalAvgPool(in, 1)
	if got := out2.Data[out2.index(0, 0, 0, 0)]; got != 6 {
		t.Errorf("gap sum with zp=1 = %d, want 6", got)
	}
}

func TestFillRandomDeterministic(t *testing.T) {
	a := RandomInt8(Shape{1, 2, 3, 4}, 42)
	b := RandomInt8(Shape{1, 2, 3, 4}, 42)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("same seed produced different data at %d", i)
		}
	}
	c := RandomInt8(Shape{1, 2, 3, 4}, 43)
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestFillRandomZeroSeed(t *testing.T) {
	a := RandomInt8(Shape{1, 1, 2, 2}, 0)
	allZero := true
	for _, v := range a.Data {
		if v != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("zero seed must still generate data")
	}
}

func TestMaxPool(t *testing.T) {
	in := NewInt8(Shape{1, 1, 4, 4})
	for i := range in.Data {
		in.Data[i] = int8(i)
	}
	out := MaxPool(in, 2, 2, 0)
	if out.Shape != (Shape{1, 1, 2, 2}) {
		t.Fatalf("shape %v", out.Shape)
	}
	want := []int8{5, 7, 13, 15}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("maxpool[%d] = %d, want %d", i, out.Data[i], w)
		}
	}
}

func TestMaxPoolPaddingIgnored(t *testing.T) {
	// All-negative input with padding: padded positions must not win.
	in := NewInt8(Shape{1, 1, 2, 2})
	for i := range in.Data {
		in.Data[i] = -50
	}
	out := MaxPool(in, 3, 2, 1)
	for i, v := range out.Data {
		if v != -50 {
			t.Errorf("maxpool pad[%d] = %d, want -50 (pad must be ignored)", i, v)
		}
	}
}
