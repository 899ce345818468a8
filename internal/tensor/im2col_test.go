package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestIm2ColMatchesDirectConv is the central cross-check: the lowered
// (im2col + matmul) path must agree exactly with the direct Conv2D
// reference for every configuration. This is the same equivalence the
// SushiAccel Line Buffer relies on.
func TestIm2ColMatchesDirectConv(t *testing.T) {
	cases := []struct {
		name   string
		in     Shape
		w      Shape
		zp     int32
		params ConvParams
	}{
		{"3x3_same", Shape{1, 3, 8, 8}, Shape{4, 3, 3, 3}, 0, ConvParams{1, 1, 1, 1, 1}},
		{"3x3_stride2", Shape{1, 4, 9, 9}, Shape{2, 4, 3, 3}, 5, ConvParams{2, 2, 1, 1, 1}},
		{"1x1", Shape{1, 8, 5, 5}, Shape{16, 8, 1, 1}, -3, ConvParams{1, 1, 0, 0, 1}},
		{"5x5_pad2", Shape{1, 2, 7, 7}, Shape{3, 2, 5, 5}, 1, ConvParams{1, 1, 2, 2, 1}},
		{"7x7_stride2_pad3", Shape{1, 3, 16, 16}, Shape{4, 3, 7, 7}, 0, ConvParams{2, 2, 3, 3, 1}},
		{"batch2", Shape{2, 3, 6, 6}, Shape{4, 3, 3, 3}, 2, ConvParams{1, 1, 1, 1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := RandomInt8(tc.in, 11)
			w := RandomInt8(tc.w, 22)
			direct, err := Conv2D(in, w, tc.zp, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			zp8 := int8(tc.zp)
			cols := Im2Col(in, tc.w.H, tc.w.W, zp8, tc.params)
			oh := OutDim(tc.in.H, tc.w.H, tc.params.StrideH, tc.params.PadH)
			ow := OutDim(tc.in.W, tc.w.W, tc.params.StrideW, tc.params.PadW)
			reshaped := matMulCols(cols, w, tc.zp, oh, ow)
			if reshaped.Shape != direct.Shape {
				t.Fatalf("shape %v != %v", reshaped.Shape, direct.Shape)
			}
			for i := range direct.Data {
				if direct.Data[i] != reshaped.Data[i] {
					t.Fatalf("mismatch at %d: direct=%d lowered=%d", i, direct.Data[i], reshaped.Data[i])
				}
			}
		})
	}
}

// TestIm2ColMatchesDirectConvQuick drives the same equivalence through
// randomized configurations using testing/quick.
func TestIm2ColMatchesDirectConvQuick(t *testing.T) {
	f := func(seedRaw uint64, cRaw, kRaw, hRaw, kernRaw, strideRaw uint8, zpRaw int8) bool {
		c := int(cRaw)%4 + 1
		k := int(kRaw)%4 + 1
		h := int(hRaw)%6 + 3
		kern := []int{1, 3, 5}[int(kernRaw)%3]
		stride := int(strideRaw)%2 + 1
		pad := kern / 2
		if h+2*pad < kern {
			return true
		}
		in := RandomInt8(Shape{1, c, h, h}, seedRaw|1)
		w := RandomInt8(Shape{k, c, kern, kern}, seedRaw|2)
		p := ConvParams{StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
		direct, err := Conv2D(in, w, int32(zpRaw), p)
		if err != nil {
			return false
		}
		cols := Im2Col(in, kern, kern, zpRaw, p)
		oh := OutDim(h, kern, stride, pad)
		reshaped := matMulCols(cols, w, int32(zpRaw), oh, oh)
		for i := range direct.Data {
			if direct.Data[i] != reshaped.Data[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// matMulCols finishes the lowered convolution: it multiplies Im2Col's
// [N, OH·OW, C·R·S, 1] rows by the KCRS weights flattened to
// [K, C·R·S], subtracting zp from every activation, into
// [N, K, OH, OW] accumulators.
func matMulCols(cols, w *Int8, zp int32, oh, ow int) *Int32 {
	n, p, d, k := cols.Shape.N, cols.Shape.C, cols.Shape.H, w.Shape.N
	out := NewInt32(Shape{N: n, C: k, H: oh, W: ow})
	for i := 0; i < n*p; i++ {
		row := cols.Data[i*d : i*d+d]
		for kk := 0; kk < k; kk++ {
			var acc int32
			for j, v := range row {
				acc += (int32(v) - zp) * int32(w.Data[kk*d+j])
			}
			out.Data[((i/p)*k+kk)*p+i%p] = acc
		}
	}
	return out
}
