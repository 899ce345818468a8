package tensor

import (
	"fmt"
	"math"
)

// QuantParams carries the affine quantization parameters used throughout
// SushiAccel: int8 data with a float scale and an int8 zero point, and
// int32 scales for requantization (the paper quantizes weights, iActs and
// zero points to int8 and the quantization scale to int32; we keep the
// scale as float64 at the API surface and expose the fixed-point form via
// FixedScale).
type QuantParams struct {
	Scale     float64
	ZeroPoint int32
}

// FixedScale returns the scale encoded as a 32-bit fixed-point multiplier
// and a right-shift, the standard gemmlowp-style requantization pair used
// by int8 accelerators.
func (q QuantParams) FixedScale() (mult int32, shift uint) {
	if q.Scale <= 0 {
		return 0, 0
	}
	s := q.Scale
	shift = 0
	for s < 0.5 && shift < 31 {
		s *= 2
		shift++
	}
	m := int64(math.Round(s * (1 << 31) / 2))
	if m > math.MaxInt32 {
		m = math.MaxInt32
	}
	return int32(m), shift
}

// Quantize maps a float value into int8 space under q, saturating.
func (q QuantParams) Quantize(v float64) int8 {
	if q.Scale == 0 {
		return int8(clampInt32(q.ZeroPoint, -128, 127))
	}
	r := int32(math.Round(v/q.Scale)) + q.ZeroPoint
	return int8(clampInt32(r, -128, 127))
}

// Dequantize maps an int8 value back to float space.
func (q QuantParams) Dequantize(v int8) float64 {
	return float64(int32(v)-q.ZeroPoint) * q.Scale
}

// Requantize folds an int32 accumulator back into int8 space using the
// combined scale (inScale*wScale/outScale), mirroring the ZS + scaling
// stage of SushiAccel: round(acc·scale) half away from zero, plus the
// zero point, saturated to int8. It saturates in the float domain — an
// out-of-range float→int conversion is implementation-defined in Go —
// and a NaN product saturates high. It is the oracle RequantizeInto is
// pinned against.
func Requantize(acc int32, combined QuantParams) int8 {
	r := math.Round(float64(acc)*combined.Scale) + float64(combined.ZeroPoint)
	switch {
	case !(r < 127):
		return 127
	case r < -128:
		return -128
	}
	return int8(r)
}

// RequantizeTensor applies Requantize to every element.
func RequantizeTensor(acc *Int32, combined QuantParams) *Int8 {
	out := NewInt8(acc.Shape)
	for i, v := range acc.Data {
		out.Data[i] = Requantize(v, combined)
	}
	return out
}

// requantLimit bounds the product before it is truncated: far beyond
// int8 ± any int32 zero point, well inside int64.
const requantLimit = 1 << 62

// RequantizeInto applies Requantize into dst, reusing dst's backing
// array. The engine's conv layers requantize in the kernels' epilogue
// (Conv2DRequantInto); this pass serves the fully-connected and pooling
// accumulators.
func RequantizeInto(dst *Int8, acc *Int32, combined QuantParams) {
	EnsureInt8(dst, acc.Shape)
	scale, zp := combined.Scale, int64(combined.ZeroPoint)
	out := dst.Data[:len(acc.Data)]
	for i, a := range acc.Data {
		out[i] = requant(a, scale, zp)
	}
}

// requant is Requantize with the scale and zero point unpacked, the one
// rounding every requantizing store shares. math.Round is not an
// intrinsic on amd64, so it rounds by truncation instead: with
// t = trunc(v), the remainder f = v − t is exact, and trunc(2f) is +1, 0
// or −1 exactly when v's fraction is ≥ ½, in between, or ≤ −½.
// Accumulator rounding and saturation are data-dependent coin flips, so
// neither is a branch: the only branches are the never-taken
// float-domain limits.
func requant(a int32, scale float64, zp int64) int8 {
	v := float64(a) * scale
	if !(v < requantLimit) {
		v = requantLimit
	}
	if v < -requantLimit {
		v = -requantLimit
	}
	t := int64(v)
	f := v - float64(t)
	r := t + int64(f+f) + zp
	r = min(r, 127)
	r = max(r, -128)
	return int8(r)
}

// QuantizeSlice quantizes a float64 slice into a fresh int8 slice.
func QuantizeSlice(vs []float64, q QuantParams) []int8 {
	out := make([]int8, len(vs))
	for i, v := range vs {
		out[i] = q.Quantize(v)
	}
	return out
}

// ChooseParams derives symmetric-range quantization parameters covering
// [lo, hi]. It returns an error if the range is empty or inverted.
func ChooseParams(lo, hi float64) (QuantParams, error) {
	if !(lo < hi) {
		return QuantParams{}, fmt.Errorf("tensor: invalid quant range [%g, %g]", lo, hi)
	}
	// Affine mapping of [lo, hi] onto [-128, 127].
	scale := (hi - lo) / 255.0
	zp := int32(math.Round(-128 - lo/scale))
	zp = clampInt32(zp, -128, 127)
	return QuantParams{Scale: scale, ZeroPoint: zp}, nil
}

func clampInt32(v, lo, hi int32) int32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ReLUInt8 applies max(zeroPoint, v) in the quantized domain.
func ReLUInt8(t *Int8, zp int8) *Int8 {
	out := NewInt8(t.Shape)
	for i, v := range t.Data {
		if v < zp {
			v = zp
		}
		out.Data[i] = v
	}
	return out
}
