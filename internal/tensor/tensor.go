// Package tensor is the int8 data plane of the SUSHI reproduction: dense
// NCHW/KCRS int8 tensors with int32 accumulators, the production
// lane-packed conv, fully-connected and requantize kernels the inference
// engine runs (blocked.go, on a worker Pool), their in-place elementwise
// and pooling ops, and the direct-loop reference kernels (Conv2D, Linear,
// GlobalAvgPool, MaxPool) that the engine's ForwardReference and the
// parity tests pin the production kernels against.
//
// SUSHI's control plane (scheduler, latency table) never touches tensor
// data; only the engine in internal/infer and the accelerator's
// functional mode do.
package tensor

import (
	"errors"
	"fmt"
)

// Shape describes a 4-D activation tensor in NCHW order or a 4-D weight
// tensor in KCRS order (kernels, channels, rows, cols). Lower-rank tensors
// set trailing dims to 1.
type Shape struct {
	N, C, H, W int
}

// Elems returns the number of elements the shape addresses.
func (s Shape) Elems() int { return s.N * s.C * s.H * s.W }

// Valid reports whether all dimensions are positive.
func (s Shape) Valid() bool { return s.N > 0 && s.C > 0 && s.H > 0 && s.W > 0 }

func (s Shape) String() string {
	return fmt.Sprintf("[%d %d %d %d]", s.N, s.C, s.H, s.W)
}

// Int8 is a dense int8 tensor with a shape. The zero value is unusable;
// construct with NewInt8.
type Int8 struct {
	Shape Shape
	Data  []int8
}

// NewInt8 allocates a zeroed int8 tensor of the given shape.
func NewInt8(s Shape) *Int8 {
	if !s.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", s))
	}
	return &Int8{Shape: s, Data: make([]int8, s.Elems())}
}

// At returns the element at (n, c, h, w).
func (t *Int8) At(n, c, h, w int) int8 {
	return t.Data[t.index(n, c, h, w)]
}

// Set stores v at (n, c, h, w).
func (t *Int8) Set(n, c, h, w int, v int8) {
	t.Data[t.index(n, c, h, w)] = v
}

func (t *Int8) index(n, c, h, w int) int {
	s := t.Shape
	return ((n*s.C+c)*s.H+h)*s.W + w
}

// Int32 is a dense int32 tensor, used for accumulators and biases.
type Int32 struct {
	Shape Shape
	Data  []int32
}

// NewInt32 allocates a zeroed int32 tensor of the given shape.
func NewInt32(s Shape) *Int32 {
	if !s.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", s))
	}
	return &Int32{Shape: s, Data: make([]int32, s.Elems())}
}

// Set stores v at (n, c, h, w).
func (t *Int32) Set(n, c, h, w int, v int32) {
	t.Data[t.index(n, c, h, w)] = v
}

func (t *Int32) index(n, c, h, w int) int {
	s := t.Shape
	return ((n*s.C+c)*s.H+h)*s.W + w
}

// ConvParams describes a 2-D convolution. Weights are KCRS; activations
// NCHW. Groups == C turns the convolution depthwise.
type ConvParams struct {
	StrideH, StrideW int
	PadH, PadW       int
	Groups           int
}

// ErrShapeMismatch is returned when operand shapes are inconsistent.
var ErrShapeMismatch = errors.New("tensor: shape mismatch")

// OutDim returns the output spatial size for input size in, kernel k,
// stride s and padding p using the standard floor convention.
func OutDim(in, k, s, p int) int {
	return (in+2*p-k)/s + 1
}

// Conv2D computes a quantized 2-D convolution with int32 accumulation:
//
//	out[n,k,oh,ow] = Σ_{c,r,s} (in[n,c,ih,iw] - zpIn) * w[k,c,r,s]
//
// zpIn is the input zero point (weights are assumed symmetric, zero point
// 0, matching SushiAccel's Zero Subtraction stage in Fig. 7). It is the
// golden reference against which the simulator's functional mode is
// validated.
func Conv2D(in *Int8, w *Int8, zpIn int32, p ConvParams) (*Int32, error) {
	if p.Groups == 0 {
		p.Groups = 1
	}
	is, ws := in.Shape, w.Shape
	if is.C%p.Groups != 0 || ws.N%p.Groups != 0 {
		return nil, fmt.Errorf("%w: channels %d / kernels %d not divisible by groups %d", ErrShapeMismatch, is.C, ws.N, p.Groups)
	}
	if ws.C != is.C/p.Groups {
		return nil, fmt.Errorf("%w: weight channels %d != input channels %d / groups %d", ErrShapeMismatch, ws.C, is.C, p.Groups)
	}
	oh := OutDim(is.H, ws.H, p.StrideH, p.PadH)
	ow := OutDim(is.W, ws.W, p.StrideW, p.PadW)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("%w: non-positive output %dx%d", ErrShapeMismatch, oh, ow)
	}
	out := NewInt32(Shape{N: is.N, C: ws.N, H: oh, W: ow})
	cPerGroup := is.C / p.Groups
	kPerGroup := ws.N / p.Groups
	inPlane, outPlane := is.H*is.W, oh*ow
	// Kernel, then channel, then tap, then output row: each tap's weight
	// is read once and added into the kernel's int32 plane in place. The
	// taps of the zero-padded border are skipped (with
	// zero-point-corrected padding they contribute exactly zero), and
	// int32 sums wrap the same in any order.
	for n := 0; n < is.N; n++ {
		for k := 0; k < ws.N; k++ {
			g := k / kPerGroup
			plane := out.Data[(n*ws.N+k)*outPlane:][:outPlane]
			for c := 0; c < cPerGroup; c++ {
				ic := g*cPerGroup + c
				src := in.Data[(n*is.C+ic)*inPlane:][:inPlane]
				for r := 0; r < ws.H; r++ {
					for s := 0; s < ws.W; s++ {
						wv := int32(w.At(k, c, r, s))
						// Output columns x whose input column x*StrideW+s-PadW
						// lies inside the image: [x0, x1).
						x0, x1 := 0, 0
						if d := p.PadW - s; d > 0 {
							x0 = (d + p.StrideW - 1) / p.StrideW
						}
						if lim := is.W - 1 + p.PadW - s; lim >= 0 {
							x1 = min(ow, lim/p.StrideW+1)
						}
						if x0 >= x1 {
							continue
						}
						for y := 0; y < oh; y++ {
							ih := y*p.StrideH + r - p.PadH
							if ih < 0 || ih >= is.H {
								continue
							}
							row, dst := src[ih*is.W+x0*p.StrideW+s-p.PadW:], plane[y*ow:][x0:x1]
							for x := range dst {
								dst[x] += (int32(row[x*p.StrideW]) - zpIn) * wv
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// Linear computes out[n,k] = Σ_c (in[n,c] - zpIn) * w[k,c] for tensors
// shaped [N,C,1,1] and [K,C,1,1].
func Linear(in *Int8, w *Int8, zpIn int32) (*Int32, error) {
	is, ws := in.Shape, w.Shape
	if is.C != ws.C {
		return nil, fmt.Errorf("%w: in C=%d w C=%d", ErrShapeMismatch, is.C, ws.C)
	}
	out := NewInt32(Shape{N: is.N, C: ws.N, H: 1, W: 1})
	for n := 0; n < is.N; n++ {
		for k := 0; k < ws.N; k++ {
			var acc int32
			for c := 0; c < is.C; c++ {
				acc += (int32(in.At(n, c, 0, 0)) - zpIn) * int32(w.At(k, c, 0, 0))
			}
			out.Set(n, k, 0, 0, acc)
		}
	}
	return out, nil
}

// GlobalAvgPool averages each channel's spatial plane, producing [N,C,1,1]
// int32 sums (division is left to the requantization step so the reference
// stays exact).
func GlobalAvgPool(in *Int8, zpIn int32) *Int32 {
	s := in.Shape
	out := NewInt32(Shape{N: s.N, C: s.C, H: 1, W: 1})
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			var acc int32
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					acc += int32(in.At(n, c, h, w)) - zpIn
				}
			}
			out.Set(n, c, 0, 0, acc)
		}
	}
	return out
}

// MaxPool computes max pooling over kxk windows with the given stride and
// padding (padded positions are ignored, never counted as zero).
func MaxPool(in *Int8, k, stride, pad int) *Int8 {
	s := in.Shape
	oh := OutDim(s.H, k, stride, pad)
	ow := OutDim(s.W, k, stride, pad)
	out := NewInt8(Shape{N: s.N, C: s.C, H: oh, W: ow})
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					best := int8(-128)
					seen := false
					for r := 0; r < k; r++ {
						ih := y*stride + r - pad
						if ih < 0 || ih >= s.H {
							continue
						}
						for q := 0; q < k; q++ {
							iw := x*stride + q - pad
							if iw < 0 || iw >= s.W {
								continue
							}
							if v := in.At(n, c, ih, iw); !seen || v > best {
								best = v
								seen = true
							}
						}
					}
					out.Set(n, c, y, x, best)
				}
			}
		}
	}
	return out
}
