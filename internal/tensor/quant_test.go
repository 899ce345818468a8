package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantizeDequantizeRoundTrip(t *testing.T) {
	q := QuantParams{Scale: 0.05, ZeroPoint: 10}
	for _, v := range []float64{-3.0, -1.5, 0, 0.7, 2.9} {
		got := q.Dequantize(q.Quantize(v))
		if math.Abs(got-v) > q.Scale/2+1e-9 {
			t.Errorf("round trip %g -> %g exceeds half-scale error", v, got)
		}
	}
}

func TestQuantizeSaturates(t *testing.T) {
	q := QuantParams{Scale: 0.01, ZeroPoint: 0}
	if got := q.Quantize(100); got != 127 {
		t.Errorf("positive saturation = %d, want 127", got)
	}
	if got := q.Quantize(-100); got != -128 {
		t.Errorf("negative saturation = %d, want -128", got)
	}
}

func TestQuantizeZeroScale(t *testing.T) {
	q := QuantParams{Scale: 0, ZeroPoint: 5}
	if got := q.Quantize(123); got != 5 {
		t.Errorf("zero-scale quantize = %d, want zero point 5", got)
	}
}

func TestChooseParamsCoversRange(t *testing.T) {
	q, err := ChooseParams(-6, 6)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := q.Dequantize(-128), q.Dequantize(127)
	if lo > -5.9 || hi < 5.9 {
		t.Errorf("range [%g, %g] does not cover [-6, 6]", lo, hi)
	}
}

func TestChooseParamsRejectsEmptyRange(t *testing.T) {
	if _, err := ChooseParams(1, 1); err == nil {
		t.Fatal("expected error for empty range")
	}
	if _, err := ChooseParams(2, 1); err == nil {
		t.Fatal("expected error for inverted range")
	}
}

func TestChooseParamsQuick(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		if hi-lo < 1e-6 || hi-lo > 1e12 {
			return true
		}
		q, err := ChooseParams(lo, hi)
		if err != nil {
			return false
		}
		// Quantizing any in-range value must stay in int8 and dequantize
		// within one scale step.
		mid := (lo + hi) / 2
		for _, v := range []float64{lo, mid, hi} {
			d := q.Dequantize(q.Quantize(v))
			if math.Abs(d-v) > q.Scale*1.5 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFixedScale(t *testing.T) {
	q := QuantParams{Scale: 0.125}
	mult, shift := q.FixedScale()
	// Reconstruct: mult / 2^31 * 2 / 2^shift should approximate 0.125.
	got := float64(mult) / (1 << 31) * 2 / float64(uint64(1)<<shift)
	if math.Abs(got-0.125) > 1e-6 {
		t.Errorf("fixed scale reconstructs to %g, want 0.125", got)
	}
	zq := QuantParams{Scale: 0}
	if m, _ := zq.FixedScale(); m != 0 {
		t.Errorf("zero scale mult = %d, want 0", m)
	}
}

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

func TestReLUInt8(t *testing.T) {
	in := NewInt8(Shape{1, 1, 1, 4})
	copy(in.Data, []int8{-5, 0, 3, -128})
	out := ReLUInt8(in, 0)
	want := []int8{0, 0, 3, 0}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("relu[%d] = %d, want %d", i, out.Data[i], w)
		}
	}
	outZP := ReLUInt8(in, -2)
	wantZP := []int8{-2, 0, 3, -2}
	for i, w := range wantZP {
		if outZP.Data[i] != w {
			t.Errorf("relu zp[-2][%d] = %d, want %d", i, outZP.Data[i], w)
		}
	}
}

func TestQuantizeSlice(t *testing.T) {
	q := QuantParams{Scale: 1, ZeroPoint: 0}
	out := QuantizeSlice([]float64{1.4, -2.6, 300}, q)
	want := []int8{1, -3, 127}
	for i, w := range want {
		if out[i] != w {
			t.Errorf("slice[%d] = %d, want %d", i, out[i], w)
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
