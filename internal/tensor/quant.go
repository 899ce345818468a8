package tensor

import "math"

// QuantParams carries the affine quantization parameters used throughout
// SushiAccel: int8 data with a scale and a zero point. The paper
// quantizes weights, iActs and zero points to int8 and the scale to a
// 32-bit fixed-point value; the scale is kept as float64 here.
type QuantParams struct {
	Scale     float64
	ZeroPoint int32
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
