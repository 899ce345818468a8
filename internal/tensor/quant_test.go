package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestRequantizeTensor(t *testing.T) {
	acc := NewInt32(Shape{1, 1, 1, 4})
	copy(acc.Data, []int32{0, 100, -100, 1000000})
	out := RequantizeTensor(acc, QuantParams{Scale: 0.01, ZeroPoint: 1})
	want := []int8{1, 2, 0, 127}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("requant[%d] = %d, want %d", i, out.Data[i], w)
		}
	}
}

// TestRequantizeSaturates pins saturation in the float domain: a product
// beyond int32 must clamp, not wrap through an implementation-defined
// float→int conversion (amd64 used to return -128 for the first row).
func TestRequantizeSaturates(t *testing.T) {
	for _, tc := range []struct {
		acc  int32
		q    QuantParams
		want int8
	}{
		{1902751687, QuantParams{Scale: 3.7}, 127},
		{-1902751687, QuantParams{Scale: 3.7}, -128},
		{math.MinInt32, QuantParams{Scale: -1}, 127},
		{math.MinInt32, QuantParams{Scale: 1}, -128},
		{math.MaxInt32, QuantParams{Scale: 1, ZeroPoint: math.MaxInt32}, 127},
		{math.MinInt32, QuantParams{Scale: 1, ZeroPoint: math.MinInt32}, -128},
		{math.MinInt32, QuantParams{Scale: 1, ZeroPoint: math.MaxInt32}, -1},
		{1, QuantParams{Scale: math.Inf(1)}, 127},
		{-1, QuantParams{Scale: math.Inf(1)}, -128},
		{5, QuantParams{Scale: 1e300, ZeroPoint: -7}, 127},
		{0, QuantParams{Scale: 1e300, ZeroPoint: -7}, -7},
		{1, QuantParams{Scale: math.NaN()}, 127},
		{3, QuantParams{Scale: 0.5}, 2},
		{-3, QuantParams{Scale: 0.5}, -2},
	} {
		if got := Requantize(tc.acc, tc.q); got != tc.want {
			t.Errorf("Requantize(%d, %+v) = %d, want %d", tc.acc, tc.q, got, tc.want)
		}
	}
}

// TestRequantizeIntoMatchesRequantize pins the truncation rounding of
// RequantizeInto against the math.Round oracle where they could part:
// on every half-integer product and its float neighbours, on
// ±(0.5 − 2^-54), at ±2^31, under zero, negative, infinite and NaN
// scales and extreme zero points, and on random triples.
func TestRequantizeIntoMatchesRequantize(t *testing.T) {
	var accs []int32
	for a := int32(-700); a <= 700; a++ {
		accs = append(accs, a)
	}
	accs = append(accs, math.MinInt32, math.MinInt32+1, math.MaxInt32, math.MaxInt32-1, 1<<30, -1<<30)
	scales := []float64{
		// acc·0.5 lands on every half-integer of the int8 range; the
		// neighbours of 0.5 land just beside them.
		0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		0.25, 1, 1.0 / 64, 0.1, 3.7, 1.0 / 3, 1e-9, 1e300, 0x1p-31, 0x1p-32,
		0, math.Copysign(0, -1), -0.5, -1, -3.7,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	zps := []int32{0, 3, -128, 127, math.MaxInt32, math.MinInt32}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50000; i++ {
		accs = append(accs, int32(rng.Uint32()))
	}
	for i := 0; i < 40; i++ {
		scales = append(scales, math.Exp(rng.Float64()*24-22))
	}
	acc := &Int32{Shape: Shape{N: 1, C: 1, H: 1, W: len(accs)}, Data: accs}
	var dst Int8
	for _, scale := range scales {
		for _, zp := range zps {
			q := QuantParams{Scale: scale, ZeroPoint: zp}
			RequantizeInto(&dst, acc, q)
			for i, a := range accs {
				if want := Requantize(a, q); dst.Data[i] != want {
					t.Fatalf("RequantizeInto(acc=%d, %+v) = %d, Requantize = %d", a, q, dst.Data[i], want)
				}
			}
		}
	}
	if got := Requantize(1, QuantParams{Scale: math.Nextafter(0.5, 0)}); got != 0 {
		t.Errorf("0.5 - 2^-54 rounded to %d, want 0", got)
	}
}
