package tensor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// naiveIm2Col is the original per-element Im2Col kept as the oracle for
// the run-copying fast paths.
func naiveIm2Col(in *Int8, kh, kw int, zp int8, p ConvParams) *Int8 {
	if p.Groups == 0 {
		p.Groups = 1
	}
	is := in.Shape
	oh := OutDim(is.H, kh, p.StrideH, p.PadH)
	ow := OutDim(is.W, kw, p.StrideW, p.PadW)
	cols := NewInt8(Shape{N: is.N, C: oh * ow, H: is.C * kh * kw, W: 1})
	for n := 0; n < is.N; n++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				row := y*ow + x
				idx := 0
				for c := 0; c < is.C; c++ {
					for r := 0; r < kh; r++ {
						ih := y*p.StrideH + r - p.PadH
						for s := 0; s < kw; s++ {
							iw := x*p.StrideW + s - p.PadW
							v := zp
							if ih >= 0 && ih < is.H && iw >= 0 && iw < is.W {
								v = in.At(n, c, ih, iw)
							}
							cols.Set(n, row, idx, 0, v)
							idx++
						}
					}
				}
			}
		}
	}
	return cols
}

// parityCase is one randomized convolution configuration.
type parityCase struct {
	in Shape
	w  Shape
	zp int32
	p  ConvParams
}

func (c parityCase) String() string {
	return fmt.Sprintf("in=%v w=%v zp=%d p=%+v", c.in, c.w, c.zp, c.p)
}

// randomParityCases draws convolution configurations spanning stride,
// padding, kernel size, batch, and groups (1, small, and depthwise).
func randomParityCases(t *testing.T, count int) []parityCase {
	t.Helper()
	rng := rand.New(rand.NewSource(1007))
	kerns := []int{1, 3, 5, 7}
	var cases []parityCase
	for len(cases) < count {
		k := kerns[rng.Intn(len(kerns))]
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(k) // 0..k-1, includes the pad-free fast path
		n := 1 + rng.Intn(3)
		groupsMode := rng.Intn(3)
		var groups, cIn, kOut int
		switch groupsMode {
		case 0: // dense
			groups = 1
			cIn = 1 + rng.Intn(8)
			kOut = 1 + rng.Intn(12)
		case 1: // grouped
			groups = 2
			cIn = 2 * (1 + rng.Intn(4))
			kOut = 2 * (1 + rng.Intn(6))
		default: // depthwise
			cIn = 1 + rng.Intn(8)
			groups = cIn
			kOut = cIn
		}
		h := k + rng.Intn(10)
		w := k + rng.Intn(10)
		c := parityCase{
			in: Shape{N: n, C: cIn, H: h, W: w},
			w:  Shape{N: kOut, C: cIn / groups, H: k, W: k},
			zp: int32(rng.Intn(11) - 5),
			p:  ConvParams{StrideH: stride, StrideW: stride, PadH: pad, PadW: pad, Groups: groups},
		}
		if OutDim(h, k, stride, pad) <= 0 || OutDim(w, k, stride, pad) <= 0 {
			continue
		}
		cases = append(cases, c)
	}
	return cases
}

// checkBlockedParity pins Conv2DBlocked bit-identical to the reference
// Conv2D scan on one configuration, sequentially and under a 4-worker
// pool (workers=1 == workers=K).
func checkBlockedParity(t *testing.T, pool *Pool, name string, in, w *Int8, zp int32, p ConvParams) {
	t.Helper()
	ref, err := Conv2D(in, w, zp, p)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	for _, pl := range []*Pool{nil, pool} {
		got, err := Conv2DBlocked(in, w, zp, p, pl)
		if err != nil {
			t.Fatalf("%s: blocked (workers=%d): %v", name, pl.Workers(), err)
		}
		if got.Shape != ref.Shape {
			t.Fatalf("%s: shape %v != %v", name, got.Shape, ref.Shape)
		}
		for j := range ref.Data {
			if got.Data[j] != ref.Data[j] {
				t.Fatalf("%s: blocked (workers=%d)[%d]=%d != reference %d", name, pl.Workers(), j, got.Data[j], ref.Data[j])
			}
		}
	}
}

// TestConv2DBlockedParity pins the blocked path bit-identical to the
// reference Conv2D scan across randomized shapes, and pins that the
// worker count does not change a single bit (workers=1 == workers=K).
func TestConv2DBlockedParity(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for i, tc := range randomParityCases(t, 60) {
		in := RandomInt8(tc.in, uint64(100+i))
		w := RandomInt8(tc.w, uint64(200+i))
		checkBlockedParity(t, pool, fmt.Sprintf("case %d (%v)", i, tc), in, w, tc.zp, tc.p)
	}
}

// filled returns a tensor whose element i is f(i).
func filled(s Shape, f func(i int) int8) *Int8 {
	t := NewInt8(s)
	for i := range t.Data {
		t.Data[i] = f(i)
	}
	return t
}

// TestConv2DBlockedAdversarialFills drives the lane-packed kernels with
// the operands that stress a lane hardest: saturated values of one
// sign, alternating extremes, and an all-negative lane beside an
// all-positive one (adjacent output columns of opposite sign), over
// shapes with several row blocks, an odd trailing position and a K tail
// after the 4-wide tile.
func TestConv2DBlockedAdversarialFills(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	fills := []struct {
		name string
		f    func(i int) int8
	}{
		{"min", func(int) int8 { return -128 }},
		{"max", func(int) int8 { return 127 }},
		{"alternating", func(i int) int8 { return int8(127 - 255*(i&1)) }},
	}
	shapes := []parityCase{
		{in: Shape{N: 2, C: 5, H: 9, W: 10}, w: Shape{N: 7, C: 5, H: 3, W: 3}, p: ConvParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}},
		// Even width and a 1x1 kernel: the alternating fill puts +127 in
		// every low lane and -128 in every high lane.
		{in: Shape{N: 1, C: 33, H: 7, W: 10}, w: Shape{N: 6, C: 33, H: 1, W: 1}, p: ConvParams{StrideH: 1, StrideW: 1, Groups: 1}},
		{in: Shape{N: 3, C: 4, H: 7, W: 7}, w: Shape{N: 10, C: 2, H: 3, W: 3}, p: ConvParams{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 2}},
		{in: Shape{N: 2, C: 3, H: 9, W: 10}, w: Shape{N: 3, C: 1, H: 7, W: 7}, p: ConvParams{StrideH: 1, StrideW: 1, PadH: 3, PadW: 3, Groups: 3}},
		{in: Shape{N: 1, C: 2, H: 11, W: 9}, w: Shape{N: 2, C: 1, H: 3, W: 3}, p: ConvParams{StrideH: 2, StrideW: 2, Groups: 2}},
	}
	for _, tc := range shapes {
		for _, inFill := range fills {
			for _, wFill := range fills {
				for _, zp := range []int32{0, -128, 127} {
					name := fmt.Sprintf("in=%s w=%s zp=%d %v", inFill.name, wFill.name, zp, tc)
					checkBlockedParity(t, pool, name, filled(tc.in, inFill.f), filled(tc.w, wFill.f), zp, tc.p)
				}
			}
		}
	}
}

// TestConv2DBlockedModelShapes covers what the small random cases never
// reach: the model's extreme P (49 and 12544), K (24, 40, 1000) and D
// (27, 147, 4608), a batch of odd-P images, two groups, and every
// depthwise kernel × stride × padding the SuperNets use, all with a
// non-zero zero point.
func TestConv2DBlockedModelShapes(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	dense := func(n, c, h, k, r, stride, pad, groups int) parityCase {
		return parityCase{
			in: Shape{N: n, C: c, H: h, W: h}, w: Shape{N: k, C: c / groups, H: r, W: r},
			p: ConvParams{StrideH: stride, StrideW: stride, PadH: pad, PadW: pad, Groups: groups},
		}
	}
	cases := []parityCase{
		dense(1, 3, 224, 24, 3, 2, 1, 1),   // P=12544, D=27
		dense(1, 3, 28, 40, 7, 2, 3, 1),    // D=147, padded 7x7
		dense(1, 512, 7, 40, 3, 1, 1, 1),   // P=49, D=4608
		dense(1, 147, 7, 1000, 1, 1, 0, 1), // K=1000, pointwise
		dense(3, 16, 7, 24, 1, 1, 0, 1),    // batch 3, odd P
		dense(3, 8, 14, 10, 1, 2, 0, 1),    // strided pointwise (downsample)
		dense(2, 16, 7, 12, 3, 1, 1, 2),    // groups=2, K tail per group
	}
	for _, k := range []int{3, 5, 7} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, k / 2} {
				for _, h := range []int{14, 15} {
					cases = append(cases, parityCase{
						in: Shape{N: 2, C: 5, H: h, W: h + 1}, w: Shape{N: 5, C: 1, H: k, W: k},
						p: ConvParams{StrideH: stride, StrideW: stride, PadH: pad, PadW: pad, Groups: 5},
					})
				}
			}
		}
	}
	for i, tc := range cases {
		tc.zp = int32(5 - 9*(i&1))
		in := RandomInt8(tc.in, uint64(800+i))
		w := RandomInt8(tc.w, uint64(900+i))
		checkBlockedParity(t, pool, tc.String(), in, w, tc.zp, tc.p)
	}
}

// TestConv2DBlockedLongReduction pins the chunk rule: reductions longer
// than a lane can hold — 2^17+3 terms of (-128)·(-128), whose sum wraps
// int32 in the reference — still match bit for bit, through the 4-wide
// tile, its K tail and the depthwise taps.
func TestConv2DBlockedLongReduction(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	min8 := func(int) int8 { return -128 }
	// D = 2675·7·7 = 2^17+3; two output positions fill both lanes.
	in := filled(Shape{N: 1, C: 2675, H: 7, W: 8}, min8)
	w := filled(Shape{N: 5, C: 2675, H: 7, W: 7}, min8)
	ref, err := Conv2D(in, w, 0, ConvParams{StrideH: 1, StrideW: 1, Groups: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Data[0] >= 0 {
		t.Fatalf("reference sum %d did not wrap int32; the case no longer tests the chunk rule", ref.Data[0])
	}
	checkBlockedParity(t, pool, "dense 2^17+3", in, w, 0, ConvParams{StrideH: 1, StrideW: 1, Groups: 1})
	// Depthwise: 257·257 taps of (-128-127)·(-128) wrap int32 too.
	in = filled(Shape{N: 1, C: 2, H: 257, W: 259}, min8)
	w = filled(Shape{N: 2, C: 1, H: 257, W: 257}, min8)
	checkBlockedParity(t, pool, "depthwise 257x257", in, w, 127, ConvParams{StrideH: 1, StrideW: 1, Groups: 2})
}

// TestConv2DBlockedWeightBounds pins the chunk rule at its boundary in
// both weight regimes the kernels meet: full-range int8 weights and the
// weight store's |w| ≤ 7, plus the bounds either side of them. Weights
// sit at ±b and activations at the int8 extremes, so a chunk of
// laneTerms terms brings a lane within one term of its limit; reductions
// of chunk−1, chunk and chunk+1 terms run through the 4-wide tile, its K
// tail (K = 5) and the depthwise taps, over P ≡ 1 and 2 (mod 3). The
// bite: the chunk+1 case split one term late must break parity.
func TestConv2DBlockedWeightBounds(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	// b → the dense and depthwise chunk ⌊(2^20−1)/(A·b)⌋, A = 128 and 255.
	// b = 0 bounds nothing; it runs the full-range lengths.
	bounds := []struct{ b, dense, dw int }{
		{0, 63, 32}, {1, 8191, 4112}, {7, 1170, 587}, {8, 1023, 514}, {127, 64, 32}, {128, 63, 32},
	}
	for _, bd := range bounds {
		lo, hi := int8(-bd.b), int8(min(bd.b, 127))
		fills := []struct {
			name  string
			in, w func(i int) int8
		}{
			{"in=min w=lo", func(int) int8 { return -128 }, func(int) int8 { return lo }},
			{"in=max w=lo", func(int) int8 { return 127 }, func(int) int8 { return lo }},
			{"alternating", func(i int) int8 { return int8(127 - 255*(i&1)) }, func(i int) int8 { return []int8{hi, lo}[i&1] }},
		}
		if bd.b > 0 {
			wd := filled(Shape{N: 1, C: 1, H: 1, W: 2}, func(i int) int8 { return []int8{lo, hi}[i] })
			if got := laneTerms(denseLane, WeightBound(wd), 1<<30); got != bd.dense {
				t.Fatalf("|w| ≤ %d: dense chunk %d, want %d", bd.b, got, bd.dense)
			}
			if got := laneTerms(dwLane, WeightBound(wd), 1<<30); got != bd.dw {
				t.Fatalf("|w| ≤ %d: depthwise chunk %d, want %d", bd.b, got, bd.dw)
			}
		}
		// 1×1 dense kernels, so D = C: pointwise (P = w) or padded by one
		// through the (c, r, s) walk (P = 4·w).
		dense := func(n, w, pad int) parityCase {
			return parityCase{
				in: Shape{N: 1, C: n, H: 1 + pad, W: w - 2*pad}, w: Shape{N: 5, C: n, H: 1, W: 1},
				p: ConvParams{StrideH: 1, StrideW: 1, PadH: pad, PadW: pad, Groups: 1},
			}
		}
		// 1×n depthwise kernels: n taps along the row, ow output columns,
		// padding rows above and below.
		dw := func(n, ow int) parityCase {
			return parityCase{
				in: Shape{N: 1, C: 2, H: 2, W: n - 1 + ow}, w: Shape{N: 2, C: 1, H: 1, W: n},
				p: ConvParams{StrideH: 1, StrideW: 1, PadH: 1, Groups: 2},
			}
		}
		var cases []parityCase
		for i := -1; i <= 1; i++ {
			// P and ow of 4 and 5 or 8: ≡ 1 and 2 (mod 3).
			for _, w := range []int{4, 5} {
				cases = append(cases, dense(bd.dense+i, w, 0), dense(bd.dense+i, w, 1))
			}
			cases = append(cases, dw(bd.dw+i, 4), dw(bd.dw+i, 8))
		}
		for _, tc := range cases {
			for _, f := range fills {
				for _, zp := range []int32{0, -128, 127} {
					name := fmt.Sprintf("|w| ≤ %d %s zp=%d %v", bd.b, f.name, zp, tc)
					checkBlockedParity(t, pool, name, filled(tc.in, f.in), filled(tc.w, f.w), zp, tc.p)
				}
			}
		}
		if bd.b == 0 {
			continue
		}
		// Every term is +128·b dense and +255·b depthwise (v − zp = −255),
		// so chunk+1 of them leave a 21-bit lane.
		for _, bite := range []struct {
			tc    parityCase
			chunk int
		}{{dense(bd.dense+1, 4, 0), bd.dense + 1}, {dw(bd.dw+1, 8), bd.dw + 1}} {
			tc, chunk := bite.tc, bite.chunk
			in, w := filled(tc.in, fills[0].in), filled(tc.w, fills[0].w)
			ref, err := Conv2D(in, w, 127, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			var out Int32
			var sc Scratch
			if err := conv2DBlocked(&out, nil, QuantParams{}, nil, in, w, 0, 127, tc.p, nil, WeightBound(w), &sc, nil, chunk); err != nil {
				t.Fatal(err)
			}
			if slices.Equal(out.Data, ref.Data) {
				t.Errorf("|w| ≤ %d %v: a %d-term chunk still matches the reference; the case no longer reaches the lane limit", bd.b, tc, chunk)
			}
		}
	}
}

// TestConv2DBlockedScratchReuse pins that a warm Scratch/output pair
// reproduces the cold result exactly (the arena reuse the engine
// relies on).
func TestConv2DBlockedScratchReuse(t *testing.T) {
	var sc Scratch
	var out Int32
	cases := randomParityCases(t, 12)
	for i, tc := range cases {
		in := RandomInt8(tc.in, uint64(300+i))
		w := RandomInt8(tc.w, uint64(400+i))
		ref, err := Conv2D(in, w, tc.zp, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if err := Conv2DBlockedInto(&out, in, w, tc.zp, tc.p, nil, &sc, nil); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if out.Shape != ref.Shape {
			t.Fatalf("case %d: shape %v != %v", i, out.Shape, ref.Shape)
		}
		for j := range ref.Data {
			if out.Data[j] != ref.Data[j] {
				t.Fatalf("case %d (%v): warm blocked[%d]=%d != reference %d", i, tc, j, out.Data[j], ref.Data[j])
			}
		}
	}
}

// TestConv2DBlockedPrecomputedWsum pins the precomputed weight-sum
// entry point (what the engine passes) against the self-computed one.
func TestConv2DBlockedPrecomputedWsum(t *testing.T) {
	tc := parityCase{
		in: Shape{N: 2, C: 6, H: 9, W: 9},
		w:  Shape{N: 8, C: 6, H: 3, W: 3},
		zp: 3,
		p:  ConvParams{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 1},
	}
	in := RandomInt8(tc.in, 31)
	w := RandomInt8(tc.w, 32)
	ref, err := Conv2D(in, w, tc.zp, tc.p)
	if err != nil {
		t.Fatal(err)
	}
	wsum := make([]int32, tc.w.N)
	WeightSums(wsum, w, 0)
	var out Int32
	var sc Scratch
	if err := Conv2DBlockedInto(&out, in, w, tc.zp, tc.p, wsum, &sc, nil); err != nil {
		t.Fatal(err)
	}
	for j := range ref.Data {
		if out.Data[j] != ref.Data[j] {
			t.Fatalf("wsum path[%d]=%d != reference %d", j, out.Data[j], ref.Data[j])
		}
	}
}

// TestConv2DBlockedRejectsBadShapes pins that the blocked path rejects
// exactly what the reference rejects.
func TestConv2DBlockedRejectsBadShapes(t *testing.T) {
	in := RandomInt8(Shape{N: 1, C: 3, H: 8, W: 8}, 1)
	w := RandomInt8(Shape{N: 4, C: 2, H: 3, W: 3}, 2)
	if _, err := Conv2DBlocked(in, w, 0, ConvParams{StrideH: 1, StrideW: 1}, nil); err == nil {
		t.Fatal("expected channel mismatch error")
	}
	w2 := RandomInt8(Shape{N: 3, C: 3, H: 3, W: 3}, 2)
	if _, err := Conv2DBlocked(in, w2, 0, ConvParams{StrideH: 1, StrideW: 1, Groups: 2}, nil); err == nil {
		t.Fatal("expected groups divisibility error")
	}
}

// checkRequantParity pins Conv2DRequantInto byte-identical to
// RequantizeInto over Conv2DBlockedInto on one configuration,
// sequentially and under pool, and returns the fused output.
func checkRequantParity(t *testing.T, pool *Pool, name string, in, w *Int8, zp int32, p ConvParams, q QuantParams) []int8 {
	t.Helper()
	var acc Int32
	var want, got Int8
	var sc Scratch
	if err := Conv2DBlockedInto(&acc, in, w, zp, p, nil, &sc, nil); err != nil {
		t.Fatalf("%s: blocked: %v", name, err)
	}
	RequantizeInto(&want, &acc, q)
	wsum := make([]int32, w.Shape.N)
	WeightSums(wsum, w, 0)
	for _, pl := range []*Pool{nil, pool} {
		if err := Conv2DRequantInto(&got, in, w, 0, zp, p, wsum, WeightBound(w), q, nil, &sc, pl); err != nil {
			t.Fatalf("%s: fused (workers=%d): %v", name, pl.Workers(), err)
		}
		if got.Shape != want.Shape {
			t.Fatalf("%s: shape %v != %v", name, got.Shape, want.Shape)
		}
		for j := range want.Data {
			if got.Data[j] != want.Data[j] {
				t.Fatalf("%s q=%+v: fused (workers=%d)[%d]=%d != two-pass %d", name, q, pl.Workers(), j, got.Data[j], want.Data[j])
			}
		}
	}
	return got.Data
}

// TestConv2DRequantParity pins the fused requantizing epilogue
// byte-identical to the two-pass int32 store + RequantizeInto: over the
// random parity cases; the 4-wide tile's K tail; depthwise rows whose
// ow is below the 6-column step or ≡ 1 and 2 (mod 3); activation zero
// points at both int8 extremes; a non-zero output zero point; scales that
// saturate at both ends; and the 2^17+3-term wrapping reduction.
func TestConv2DRequantParity(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	qs := []QuantParams{
		{Scale: 1.0 / 64},
		{Scale: 0.5, ZeroPoint: -7}, // odd sums land on ties
		{Scale: 3, ZeroPoint: 100},  // saturates at both ends
		{Scale: 1e-4, ZeroPoint: -128},
	}
	for i, tc := range randomParityCases(t, 60) {
		in := RandomInt8(tc.in, uint64(100+i))
		w := RandomInt8(tc.w, uint64(200+i))
		checkRequantParity(t, pool, fmt.Sprintf("case %d (%v)", i, tc), in, w, tc.zp, tc.p, qs[i%len(qs)])
	}
	shapes := []parityCase{
		// Dense and grouped, K tails of 3, 2 and 1 per group.
		{in: Shape{N: 2, C: 5, H: 9, W: 10}, w: Shape{N: 7, C: 5, H: 3, W: 3}, p: ConvParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}},
		{in: Shape{N: 1, C: 33, H: 7, W: 10}, w: Shape{N: 6, C: 33, H: 1, W: 1}, p: ConvParams{StrideH: 1, StrideW: 1, Groups: 1}},
		{in: Shape{N: 3, C: 4, H: 7, W: 7}, w: Shape{N: 10, C: 2, H: 3, W: 3}, p: ConvParams{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 2}},
	}
	// Depthwise, ow = 1, 2, 4, 5, 7 and 8.
	for _, ow := range []int{1, 2, 4, 5, 7, 8} {
		shapes = append(shapes, parityCase{
			in: Shape{N: 2, C: 3, H: 6, W: ow + 2}, w: Shape{N: 3, C: 1, H: 3, W: 3},
			p: ConvParams{StrideH: 1, StrideW: 1, PadH: 1, Groups: 3},
		})
	}
	for i, tc := range shapes {
		in := RandomInt8(tc.in, uint64(600+i))
		w := RandomInt8(tc.w, uint64(700+i))
		for _, zp := range []int32{0, -128, 127} {
			for _, q := range qs {
				checkRequantParity(t, pool, fmt.Sprintf("zp=%d %v", zp, tc), in, w, zp, tc.p, q)
			}
		}
	}
	// The saturating scale must reach both ends, or it tests nothing.
	tc := shapes[0]
	out := checkRequantParity(t, pool, "saturation", RandomInt8(tc.in, 1), RandomInt8(tc.w, 2), 0, tc.p, qs[2])
	if !slices.Contains(out, 127) || !slices.Contains(out, -128) {
		t.Fatal("scale 3 saturated at most one end")
	}
	// 2^17+3 terms of (-128)·(-128) wrap int32 before requantizing.
	min8 := func(int) int8 { return -128 }
	for _, q := range qs {
		checkRequantParity(t, pool, "dense 2^17+3", filled(Shape{N: 1, C: 2675, H: 7, W: 8}, min8),
			filled(Shape{N: 5, C: 2675, H: 7, W: 7}, min8), 0, ConvParams{StrideH: 1, StrideW: 1, Groups: 1}, q)
		checkRequantParity(t, pool, "depthwise 257x257", filled(Shape{N: 1, C: 2, H: 257, W: 259}, min8),
			filled(Shape{N: 2, C: 1, H: 257, W: 257}, min8), 127, ConvParams{StrideH: 1, StrideW: 1, Groups: 2}, q)
	}
}

// addSatInt8 stores a + b elementwise into dst with int8 saturation;
// dst may alias a or b. It is the residual epilogue's oracle.
func addSatInt8(dst, a, b *Int8) error {
	if a.Shape != b.Shape {
		return fmt.Errorf("%w: %v vs %v", ErrShapeMismatch, a.Shape, b.Shape)
	}
	EnsureInt8(dst, a.Shape)
	bd := b.Data[:len(a.Data)]
	dd := dst.Data[:len(a.Data)]
	for i, av := range a.Data {
		dd[i] = int8(min(127, max(-128, int32(av)+int32(bd[i]))))
	}
	return nil
}

// TestConv2DRequantResidual pins the residual epilogue byte-identical to
// requantizing and then adding the residual with saturation, over
// adversarial fills, activation zero points at both int8 extremes and a
// requantization that saturates, sequentially and at 4 workers, with dst
// a separate tensor and with dst aliasing the residual. A residual of
// another shape is rejected.
func TestConv2DRequantResidual(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	fills := []func(i int) int8{
		func(int) int8 { return -128 },
		func(int) int8 { return 127 },
		func(i int) int8 { return int8(127 - 255*(i&1)) },
		nil, // random
	}
	shapes := []parityCase{
		// Pointwise (a project or conv3), strided pointwise (a
		// downsample), a padded 3x3 with a K tail, and a depthwise conv.
		{in: Shape{N: 1, C: 33, H: 7, W: 10}, w: Shape{N: 6, C: 33, H: 1, W: 1}, p: ConvParams{StrideH: 1, StrideW: 1, Groups: 1}},
		{in: Shape{N: 2, C: 8, H: 9, W: 9}, w: Shape{N: 10, C: 8, H: 1, W: 1}, p: ConvParams{StrideH: 2, StrideW: 2, Groups: 1}},
		{in: Shape{N: 1, C: 5, H: 9, W: 10}, w: Shape{N: 7, C: 5, H: 3, W: 3}, p: ConvParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}},
		{in: Shape{N: 1, C: 3, H: 8, W: 11}, w: Shape{N: 3, C: 1, H: 3, W: 3}, p: ConvParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 3}},
	}
	qs := []QuantParams{{Scale: 1.0 / 64, ZeroPoint: 3}, {Scale: 3, ZeroPoint: -100}}
	for i, tc := range shapes {
		for f, fill := range fills {
			in, w := RandomInt8(tc.in, uint64(40+i)), RandomInt8(tc.w, uint64(50+i))
			if fill != nil {
				in, w = filled(tc.in, fill), filled(tc.w, fills[(f+1)%3])
			}
			var acc Int32
			var sc Scratch
			for _, zp := range []int32{0, -128, 127} {
				if err := Conv2DBlockedInto(&acc, in, w, zp, tc.p, nil, &sc, nil); err != nil {
					t.Fatal(err)
				}
				res := RandomInt8(acc.Shape, uint64(60+i))
				if fill != nil {
					res = filled(acc.Shape, fills[(f+2)%3])
				}
				wsum := make([]int32, tc.w.N)
				wMax := WeightSums(wsum, w, 0)
				for _, q := range qs {
					var want, got Int8
					RequantizeInto(&want, &acc, q)
					if err := addSatInt8(&want, &want, res); err != nil {
						t.Fatal(err)
					}
					for _, pl := range []*Pool{nil, pool} {
						aliased := &Int8{Shape: res.Shape, Data: slices.Clone(res.Data)}
						for _, dst := range []*Int8{&got, aliased} {
							if err := Conv2DRequantInto(dst, in, w, 0, zp, tc.p, wsum, wMax, q, aliased, &sc, pl); err != nil {
								t.Fatal(err)
							}
							if dst.Shape != want.Shape || !slices.Equal(dst.Data, want.Data) {
								t.Fatalf("%v fill %d zp=%d q=%+v workers=%d aliased=%t: residual epilogue differs from requantize + saturating add",
									tc, f, zp, q, pl.Workers(), dst == aliased)
							}
						}
					}
				}
			}
		}
	}
	in := RandomInt8(shapes[0].in, 1)
	w := RandomInt8(shapes[0].w, 2)
	var got Int8
	var sc Scratch
	bad := NewInt8(Shape{N: 1, C: 5, H: 7, W: 10})
	if err := Conv2DRequantInto(&got, in, w, 0, 0, shapes[0].p, nil, 7, qs[0], bad, &sc, nil); err == nil {
		t.Fatal("a residual of another shape was accepted")
	}
}

// TestPackPointwise pins the channel-outer pointwise pack against a
// position-by-position gather, at stride 1 and 2, over row blocks
// of 1, 2, 4, 5, 7 and 8 positions that cross an output row, so the last
// triple is short and its unused lanes must hold the zero point.
func TestPackPointwise(t *testing.T) {
	in := RandomInt8(Shape{N: 2, C: 5, H: 6, W: 9}, 71)
	for _, stride := range []int{1, 2} {
		g := gemmArgs{
			in: in.Data, cTot: 5, c0: 1, c: 3, h: 6, iw: 9,
			ow: OutDim(9, 1, stride, 0), kh: 1, kw: 1, sh: stride, sw: stride,
			d: 3, zp: -3,
		}
		for _, n := range []int{1, 2, 4, 5, 7, 8} {
			p0, hw, zp := 3, g.h*g.iw, int64(g.zp)
			got, want := make([]int64, (n+2)/3*g.d), make([]int64, (n+2)/3*g.d)
			for i := range got {
				got[i] = 0x5a5a5a5a // the pack must not read what it overwrites
			}
			g.pack(got, 1, p0, p0+n)
			for i := range want {
				want[i] = zp + zp<<laneBits + zp<<(2*laneBits)
			}
			img := in.Data[(g.cTot+g.c0)*hw:]
			for i := range n {
				y, x := (p0+i)/g.ow, (p0+i)%g.ow
				src := img[y*g.sh*g.iw+x*g.sw:]
				for c := range g.c {
					want[i/3*g.d+c] += (int64(src[c*hw]) - zp) << (uint(i%3) * laneBits)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("stride %d, %d positions: pack %v, want %v", stride, n, got, want)
			}
		}
	}
}

// TestIm2ColFastPathMatchesNaive pins the run-copying Im2Col against
// the original per-element oracle, padded and pad-free.
func TestIm2ColFastPathMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 40; i++ {
		k := []int{1, 3, 5}[rng.Intn(3)]
		p := ConvParams{
			StrideH: 1 + rng.Intn(2), StrideW: 1 + rng.Intn(2),
			PadH: rng.Intn(k), PadW: rng.Intn(k), Groups: 1,
		}
		s := Shape{N: 1 + rng.Intn(2), C: 1 + rng.Intn(5), H: k + rng.Intn(8), W: k + rng.Intn(8)}
		if OutDim(s.H, k, p.StrideH, p.PadH) <= 0 || OutDim(s.W, k, p.StrideW, p.PadW) <= 0 {
			continue
		}
		in := RandomInt8(s, uint64(500+i))
		zp := int8(rng.Intn(9) - 4)
		fast := Im2Col(in, k, k, zp, p)
		naive := naiveIm2Col(in, k, k, zp, p)
		if fast.Shape != naive.Shape {
			t.Fatalf("case %d: shape %v != %v", i, fast.Shape, naive.Shape)
		}
		for j := range naive.Data {
			if fast.Data[j] != naive.Data[j] {
				t.Fatalf("case %d (in=%v k=%d p=%+v): fast[%d]=%d != naive %d",
					i, s, k, p, j, fast.Data[j], naive.Data[j])
			}
		}
	}
}

// TestLinearBlockedParity pins the blocked fully-connected kernel
// against the reference Linear.
func TestLinearBlockedParity(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	in := RandomInt8(Shape{N: 3, C: 37, H: 1, W: 1}, 41)
	w := RandomInt8(Shape{N: 129, C: 37, H: 1, W: 1}, 42)
	ref, err := Linear(in, w, 2)
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	for _, pl := range []*Pool{nil, pool} {
		var out Int32
		if err := LinearBlockedInto(&out, in, w, 0, 2, nil, &sc, pl); err != nil {
			t.Fatal(err)
		}
		if out.Shape != ref.Shape {
			t.Fatalf("shape %v != %v", out.Shape, ref.Shape)
		}
		for j := range ref.Data {
			if out.Data[j] != ref.Data[j] {
				t.Fatalf("linear blocked[%d]=%d != reference %d", j, out.Data[j], ref.Data[j])
			}
		}
	}
}

// cornerView returns the top-left k×c corner of a [K, C, kh, kw] panel
// as a view whose rows stay ld = C·kh·kw apart, and a packed copy of it.
func cornerView(panel *Int8, k, c int) (view, packed *Int8, ld int) {
	ps := panel.Shape
	s := Shape{N: k, C: c, H: ps.H, W: ps.W}
	ld, d := ps.C*ps.H*ps.W, c*ps.H*ps.W
	view, packed = &Int8{Shape: s, Data: panel.Data[:(k-1)*ld+d]}, NewInt8(s)
	for r := 0; r < k; r++ {
		copy(packed.Data[r*d:][:d], panel.Data[r*ld:])
	}
	return view, packed, ld
}

// TestStridedWeightParity pins the kernels' weight row stride: dense
// 3x3, pointwise and fully-connected layers run on the top-left corner
// of a larger panel (ld > d, and K' % 4 != 0 so the 4-wide tile's tail
// runs) bit-identical to the reference kernels on a packed copy of that
// corner, sequentially and under a pool.
func TestStridedWeightParity(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	q := QuantParams{Scale: 1.0 / 64, ZeroPoint: 3}
	unit := ConvParams{StrideH: 1, StrideW: 1}
	for _, tc := range []struct {
		name      string
		in, panel Shape
		k         int
		p         ConvParams
	}{
		{"dense3x3", Shape{N: 2, C: 5, H: 9, W: 11}, Shape{N: 16, C: 9, H: 3, W: 3}, 7, ConvParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
		{"pointwise", Shape{N: 1, C: 6, H: 7, W: 7}, Shape{N: 12, C: 10, H: 1, W: 1}, 9, unit},
		{"linear", Shape{N: 3, C: 37, H: 1, W: 1}, Shape{N: 140, C: 50, H: 1, W: 1}, 129, ConvParams{}},
	} {
		in := RandomInt8(tc.in, 51)
		view, packed, ld := cornerView(RandomInt8(tc.panel, 52), tc.k, tc.in.C)
		wsum, want := make([]int32, tc.k), make([]int32, tc.k)
		wMax := WeightSums(wsum, view, ld)
		if WeightSums(want, packed, 0) != wMax || wMax != WeightBound(packed) || !slices.Equal(wsum, want) {
			t.Fatalf("%s: strided WeightSums disagree with the packed copy's", tc.name)
		}
		var sc Scratch
		for _, pl := range []*Pool{nil, pool} {
			if tc.p == (ConvParams{}) {
				ref, err := Linear(in, packed, 2)
				if err != nil {
					t.Fatal(err)
				}
				var out Int32
				if err := LinearBlockedInto(&out, in, view, ld, 2, wsum, &sc, pl); err != nil {
					t.Fatal(err)
				}
				if out.Shape != ref.Shape || !slices.Equal(out.Data, ref.Data) {
					t.Fatalf("%s (workers=%d): strided linear differs from the packed reference", tc.name, pl.Workers())
				}
				continue
			}
			ref, err := Conv2D(in, packed, 2, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			var acc Int32
			if err := conv2DBlocked(&acc, nil, QuantParams{}, nil, in, view, ld, 2, tc.p, wsum, wMax, &sc, pl, 0); err != nil {
				t.Fatal(err)
			}
			if acc.Shape != ref.Shape || !slices.Equal(acc.Data, ref.Data) {
				t.Fatalf("%s (workers=%d): strided conv differs from the packed reference", tc.name, pl.Workers())
			}
			var got Int8
			if err := Conv2DRequantInto(&got, in, view, ld, 2, tc.p, wsum, wMax, q, nil, &sc, pl); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Data, RequantizeTensor(ref, q).Data) {
				t.Fatalf("%s (workers=%d): strided requantizing conv differs from the packed reference", tc.name, pl.Workers())
			}
		}
	}
	// A stride below the row length, or rows past the data, is rejected.
	in := RandomInt8(Shape{N: 1, C: 4, H: 5, W: 5}, 53)
	view, _, ld := cornerView(RandomInt8(Shape{N: 6, C: 8, H: 3, W: 3}, 54), 5, 4)
	var got Int8
	var sc Scratch
	for _, bad := range []int{4*9 - 1, ld + 1} {
		if err := Conv2DRequantInto(&got, in, view, bad, 0, unit, nil, 7, q, nil, &sc, nil); err == nil {
			t.Errorf("weight row stride %d accepted for rows of %d in %d weights", bad, 4*9, len(view.Data))
		}
	}
}

// TestInPlaceOpsMatchReference pins the arena's in-place ops against
// their allocating reference counterparts.
func TestInPlaceOpsMatchReference(t *testing.T) {
	acc := NewInt32(Shape{N: 1, C: 4, H: 5, W: 5})
	rng := rand.New(rand.NewSource(5))
	for i := range acc.Data {
		acc.Data[i] = int32(rng.Intn(20001) - 10000)
	}
	q := QuantParams{Scale: 0.01, ZeroPoint: 3}
	ref := RequantizeTensor(acc, q)
	var dst Int8
	RequantizeInto(&dst, acc, q)
	for j := range ref.Data {
		if dst.Data[j] != ref.Data[j] {
			t.Fatalf("RequantizeInto[%d]=%d != %d", j, dst.Data[j], ref.Data[j])
		}
	}

	in := RandomInt8(Shape{N: 2, C: 3, H: 9, W: 9}, 11)
	mpRef := MaxPool(in, 3, 2, 1)
	var mp Int8
	MaxPoolInto(&mp, in, 3, 2, 1)
	if mp.Shape != mpRef.Shape {
		t.Fatalf("MaxPoolInto shape %v != %v", mp.Shape, mpRef.Shape)
	}
	for j := range mpRef.Data {
		if mp.Data[j] != mpRef.Data[j] {
			t.Fatalf("MaxPoolInto[%d]=%d != %d", j, mp.Data[j], mpRef.Data[j])
		}
	}

	gapRef := GlobalAvgPool(in, 2)
	var gap Int32
	GlobalAvgPoolInto(&gap, in, 2)
	if gap.Shape != gapRef.Shape {
		t.Fatalf("GlobalAvgPoolInto shape %v != %v", gap.Shape, gapRef.Shape)
	}
	for j := range gapRef.Data {
		if gap.Data[j] != gapRef.Data[j] {
			t.Fatalf("GlobalAvgPoolInto[%d]=%d != %d", j, gap.Data[j], gapRef.Data[j])
		}
	}
}

// TestPoolRunCoversAllBlocks pins the pool's work distribution: every
// index runs exactly once regardless of width.
func TestPoolRunCoversAllBlocks(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		pool := NewPool(workers)
		counts := make([]int32, 97)
		pool.Run(len(counts), func(_, i int) { counts[i]++ })
		pool.Close()
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: block %d ran %d times", workers, i, c)
			}
		}
	}
}

// benchConvShapes are the layer shapes the benchmark's per-layer
// tensor.* rows time: the heaviest dense 3×3 of the smallest resnet50
// SubNet and the heaviest pointwise and depthwise layers of the smallest
// mobilenetv3 SubNet.
var benchConvShapes = []struct {
	name  string
	in, w Shape
	p     ConvParams
}{
	{"resnet50_3x3", Shape{N: 1, C: 168, H: 28, W: 28}, Shape{N: 168, C: 168, H: 3, W: 3}, ConvParams{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 1}},
	{"mbv3_pointwise", Shape{N: 1, C: 16, H: 112, W: 112}, Shape{N: 48, C: 16, H: 1, W: 1}, ConvParams{StrideH: 1, StrideW: 1, Groups: 1}},
	{"mbv3_depthwise", Shape{N: 1, C: 72, H: 56, W: 56}, Shape{N: 72, C: 1, H: 3, W: 3}, ConvParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 72}},
}

// BenchmarkConv2DBlocked measures the blocked kernel (sequential) per
// layer shape, with full-range int8 weights and with the weight store's
// |w| ≤ 7, whose longer lane chunks split less often, storing int32 sums
// and (requant) requantizing them to int8 in the epilogue as the engine
// does.
func BenchmarkConv2DBlocked(b *testing.B) {
	for _, sh := range benchConvShapes {
		in := RandomInt8(sh.in, 1)
		full := RandomInt8(sh.w, 2)
		small := filled(sh.w, func(i int) int8 { return full.Data[i] % 8 })
		oh := OutDim(sh.in.H, sh.w.H, sh.p.StrideH, sh.p.PadH)
		ow := OutDim(sh.in.W, sh.w.W, sh.p.StrideW, sh.p.PadW)
		macs := float64(sh.w.Elems() * oh * ow)
		for _, w := range []struct {
			name string
			t    *Int8
		}{{"w=int8", full}, {"w=7", small}} {
			b.Run(sh.name+"/"+w.name, func(b *testing.B) {
				var out Int32
				var sc Scratch
				b.ReportAllocs()
				for b.Loop() {
					if err := Conv2DBlockedInto(&out, in, w.t, 0, sh.p, nil, &sc, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
			b.Run(sh.name+"/"+w.name+"/requant", func(b *testing.B) {
				var out Int8
				var sc Scratch
				wsum := make([]int32, sh.w.N)
				WeightSums(wsum, w.t, 0)
				wMax, q := WeightBound(w.t), QuantParams{Scale: 1.0 / 64}
				b.ReportAllocs()
				for b.Loop() {
					if err := Conv2DRequantInto(&out, in, w.t, 0, 0, sh.p, wsum, wMax, q, nil, &sc, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}

// BenchmarkConv2DReference measures the naive quadruple-loop scan the
// blocked kernel replaces, on the dense 3×3 shape.
func BenchmarkConv2DReference(b *testing.B) {
	sh := benchConvShapes[0]
	in := RandomInt8(sh.in, 1)
	w := RandomInt8(sh.w, 2)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Conv2D(in, w, 0, sh.p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRequantizeInto measures the requantize stage on a layer's
// worth of accumulators whose products straddle rounding and saturation.
func BenchmarkRequantizeInto(b *testing.B) {
	acc := NewInt32(Shape{N: 1, C: 64, H: 32, W: 32})
	rng := rand.New(rand.NewSource(3))
	for i := range acc.Data {
		acc.Data[i] = int32(rng.Intn(40001) - 20000)
	}
	q := QuantParams{Scale: 1.0 / 64, ZeroPoint: 3}
	var dst Int8
	RequantizeInto(&dst, acc, q)
	b.SetBytes(int64(5 * len(acc.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RequantizeInto(&dst, acc, q)
	}
}
