package tensor

import "fmt"

// This file is the lane-packed int8 convolution data plane. A 64-bit
// multiply carries three 8-bit products: the activations of three
// adjacent output positions sit in 21-bit lanes at bits 0, 21 and 42 of
// one int64 (a[p] + a[p+1]<<21 + a[p+2]<<42), so multiplying by a
// sign-extended weight performs three MACs and an int64 sum accumulates
// three outputs. Dense and grouped convolutions pack the triple panel of
// one row block straight from the input (the (c, r, s) walk of
// im2colInto, never a materialised patch matrix) and sweep it with a
// 1-triple × 4-output-channel register tile, the batch fused into the P
// (output-position) rows. Depthwise convolutions lane-pack a zero-fringed
// copy of each plane at one and two column strides, so one
// bounds-test-free tap loop yields three output columns. Work is split
// into row blocks (dense) or planes (depthwise) executed by a Pool; each
// pool worker owns one pack buffer in the Scratch. Both kernels end in
// one epilogue with two stores: the corrected int32 sums
// (Conv2DBlockedInto), or those sums requantized straight to int8, with
// an optional residual operand added in (Conv2DRequantInto), so a fused
// layer never materialises its int32 accumulators.
//
// Everything here is bit-identical to the reference Conv2D
// scan for any int8 zero point: int32 accumulation is modular, so any
// summation order matches; the zero-point correction uses the exact
// identity Σ(a−zp)·w = Σ a·w − zp·Σw; and the lane split is exact because
// no lane sum ever leaves a signed 21-bit lane. A term is at most A·W in
// magnitude, where A bounds a lane operand (128 for a dense activation,
// 255 for a depthwise v−zp) and W is the largest |w| of the weight tensor
// (WeightBound: scanned per call by Conv2DBlockedInto, passed in by the
// engine's plan to Conv2DRequantInto), so a reduction is cut into chunks
// of ⌊(2^20−1)/(A·W)⌋ terms (laneTerms) and the extracted lanes are added
// in (wrapping) int32 as the reference does. The parity suite pins this.

const (
	// laneBits is the width of one lane; laneMax is the largest lane
	// sum magnitude a lane reads back exactly.
	laneBits = 21
	laneMax  = 1<<(laneBits-1) - 1
	// denseLane and dwLane bound a lane operand: an int8 activation, and
	// its distance v − zp from an int8 zero point.
	denseLane = 128
	dwLane    = 255
	// gemmPanel bounds a row block's pack panel in int64 lanes, so the
	// panel a tile re-reads for every four output channels stays
	// L1-resident; gemmMaxTriples bounds the block for short reductions.
	gemmPanel      = 4 << 10
	gemmMaxTriples = 16
	linKBlock      = 64
)

// Scratch holds the reusable buffers of the blocked path. The zero
// value is ready to use; buffers grow to the high-water mark and are
// then reused, so a warm Scratch makes the blocked kernels
// allocation-free.
type Scratch struct {
	// Wsum is the per-output-channel weight sum used by the zero-point
	// correction when the caller did not precompute one.
	Wsum []int32
	// lanes[i] is pool worker i's pack buffer: a GEMM triple panel or a
	// depthwise padded plane.
	lanes [][]int64
	// taps is the depthwise kernel's tap offsets into the padded plane.
	taps []int
	// Persistent argument blocks: kernels assign them in place and the
	// sequential path calls their methods directly, so no closure is
	// materialized outside the parallel branch.
	gemm gemmArgs
	dw   dwArgs
	lin  linArgs
}

// laneBufs returns one pack buffer of at least n lanes per pool worker.
// It grows them on the calling goroutine, before any fan-out, so the
// workers only ever index their own.
func (s *Scratch) laneBufs(workers, n int) [][]int64 {
	for len(s.lanes) < workers {
		s.lanes = append(s.lanes, nil)
	}
	for i := range s.lanes[:workers] {
		if cap(s.lanes[i]) < n {
			s.lanes[i] = make([]int64, n)
		}
	}
	return s.lanes
}

func (s *Scratch) wsumBuf(n int) []int32 {
	if cap(s.Wsum) < n {
		s.Wsum = make([]int32, n)
	}
	return s.Wsum[:n]
}

// EnsureInt8 points t at shape s, reusing its backing array when the
// capacity allows and allocating (only) when it must grow.
func EnsureInt8(t *Int8, s Shape) {
	n := s.Elems()
	t.Shape = s
	if cap(t.Data) >= n {
		t.Data = t.Data[:n]
	} else {
		t.Data = make([]int8, n)
	}
}

// EnsureInt32 is EnsureInt8 for int32 tensors.
func EnsureInt32(t *Int32, s Shape) {
	n := s.Elems()
	t.Shape = s
	if cap(t.Data) >= n {
		t.Data = t.Data[:n]
	} else {
		t.Data = make([]int32, n)
	}
}

// WeightSums fills dst[k] with Σ_d w[k,d] over flattened KCRS rows —
// the zero-point correction term of the blocked kernels — and returns
// the rows' WeightBound. Row k starts at k·ld (0 means packed rows);
// dst must have w.Shape.N elements.
func WeightSums(dst []int32, w *Int8, ld int) (wMax int) {
	ws := w.Shape
	d := ws.C * ws.H * ws.W
	if ld == 0 {
		ld = d
	}
	for k := 0; k < ws.N; k++ {
		var s int32
		for _, v := range w.Data[k*ld:][:d] {
			s += int32(v)
			wMax = max(wMax, int(v), -int(v))
		}
		dst[k] = s
	}
	return wMax
}

// dotInt8 is the unrolled int8→int32 inner kernel of the fully-connected
// layers: Σ a[i]·b[i] with four parallel accumulators (int32 addition is
// associative mod 2^32, so the split changes nothing).
func dotInt8(a, b []int8) int32 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+3 < n; i += 4 {
		s0 += int32(a[i]) * int32(b[i])
		s1 += int32(a[i+1]) * int32(b[i+1])
		s2 += int32(a[i+2]) * int32(b[i+2])
		s3 += int32(a[i+3]) * int32(b[i+3])
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += int32(a[i]) * int32(b[i])
	}
	return s
}

// laneSums is the three int32 outputs one lane-packed accumulator
// carries.
type laneSums [3]int32

// add splits a lane-packed sum whose lanes each fit a signed 21-bit lane
// and adds the lanes in. The shift pair sign-extends the lowest lane;
// adding 2^20 makes it non-negative, so the arithmetic shift floors to
// exactly the lanes above it.
func (l *laneSums) add(s int64) {
	t := (s + laneMax + 1) >> laneBits
	l[0] += int32(s << (64 - laneBits) >> (64 - laneBits))
	l[1] += int32(t << (64 - laneBits) >> (64 - laneBits))
	l[2] += int32((t + laneMax + 1) >> laneBits)
}

// WeightBound is max|w| over a weight tensor: the W of the lane rule.
func WeightBound(w *Int8) int {
	var lo, hi int8
	for _, v := range w.Data {
		lo, hi = min(lo, v), max(hi, v)
	}
	return max(-int(lo), int(hi))
}

// laneTerms is the chunk length of a lane-packed reduction of d terms
// whose lane operands are at most a in magnitude, against weights of
// magnitude at most wMax: the most terms of magnitude a·wMax that
// cannot leave a lane.
func laneTerms(a, wMax, d int) int {
	if wMax > 0 {
		return min(d, laneMax/(a*wMax))
	}
	return d
}

// epilogue is where a conv kernel stores its corrected sums: as int32
// into acc, or, when q8 is set, requantized to int8 into q8, plus, when
// res is set, the residual operand res[o] with int8 saturation. q8 may
// alias res: each store reads res[o] before it writes q8[o].
type epilogue struct {
	acc   []int32
	q8    []int8
	res   []int8
	scale float64
	zp    int64
}

// store writes the first n lanes of l, less corr, at output index o.
func (e *epilogue) store(o int, l *laneSums, corr int32, n int) {
	if e.q8 != nil {
		q := e.q8[o:][:n]
		for i := range q {
			v := requant(l[i]-corr, e.scale, e.zp)
			if e.res != nil {
				v = int8(min(127, max(-128, int32(v)+int32(e.res[o+i]))))
			}
			q[i] = v
		}
		return
	}
	a := e.acc[o:][:n]
	for i := range a {
		a[i] = l[i] - corr
	}
}

// laneDot is the one-output-channel lane kernel (the K tail of the
// 4-wide tile): the three lanes of Σ a[d]·w[d], split every chunk terms.
func laneDot(a []int64, w []int8, chunk int) (l laneSums) {
	for d0 := 0; d0 < len(a); d0 += chunk {
		ac := a[d0:min(len(a), d0+chunk)]
		wc := w[d0:][:len(ac)]
		var s int64
		for d, v := range ac {
			s += v * int64(wc[d])
		}
		l.add(s)
	}
	return l
}

// laneDot4 is the register tile's inner loop: the lane-packed sums of
// a against four weight rows that start stride apart in w. It is its
// own function so its ten live values get the register file to
// themselves.
//
//go:noinline
func laneDot4(a []int64, w []int8, stride int) (s0, s1, s2, s3 int64) {
	w0, w1, w2, w3 := w[:len(a)], w[stride:][:len(a)], w[2*stride:][:len(a)], w[3*stride:][:len(a)]
	for i, v := range a {
		s0 += v * int64(w0[i])
		s1 += v * int64(w1[i])
		s2 += v * int64(w2[i])
		s3 += v * int64(w3[i])
	}
	return
}

// gemmArgs is one group's lane-packed convolution: output
// (n·kTot+kOff+k)·P + p stores Σ_d patch(n, p)[d]·w[k][d] − zp·wsum[k]
// for k in [0, K), where patch is the (c, r, s) im2col row over input
// channels [c0, c0+c) and weight row k starts at wRows[k·ld].
type gemmArgs struct {
	epilogue
	in    []int8
	wRows []int8
	wsum  []int32
	bufs  [][]int64
	// Input geometry: cTot channels per image, this group reads c of
	// them from c0; h×iw planes; kh×kw kernel.
	cTot, c0, c    int
	h, iw, ow      int
	kh, kw         int
	sh, sw, ph, pw int
	p              int // output positions per image
	k              int // output channels in this gemm
	d              int // reduction length c·kh·kw
	ld             int // weight row stride, at least d
	kTot           int // output channel stride context (total channels in out)
	kOff           int // first output channel this gemm writes
	zp             int32
	rows           int // positions per row block (a multiple of 3)
	nrb            int // row blocks per image
	chunk          int // terms per lane split (laneTerms)
}

// pack fills pk with the lane-packed patch rows of image n's output
// positions [p0, p1): triple j carries position p0+3j+i in lane i. Every
// lane starts as the zero point, which is what im2colInto puts at
// padding (and leaves in the unused lanes of a triple p1 cuts short),
// and each in-bounds element then adds its distance from it.
func (g *gemmArgs) pack(pk []int64, n, p0, p1 int) {
	hw := g.h * g.iw
	img := g.in[(n*g.cTot+g.c0)*hw:][:g.c*hw]
	if g.kh == 1 && g.kw == 1 && g.ph == 0 && g.pw == 0 {
		g.packPointwise(pk, img, p0, p1)
		return
	}
	zp := int64(int8(g.zp))
	for i := range pk {
		pk[i] = zp + zp<<laneBits + zp<<(2*laneBits)
	}
	y, x := p0/g.ow, p0%g.ow
	for i := 0; i < p1-p0; i++ {
		dst := pk[i/3*g.d:][:g.d]
		lane := uint(i%3) * laneBits
		iy, ix := y*g.sh-g.ph, x*g.sw-g.pw
		sLo, sHi := max(0, -ix), min(g.kw, g.iw-ix)
		for c := 0; c < g.c; c++ {
			for r := 0; r < g.kh; r++ {
				if ih := iy + r; uint(ih) < uint(g.h) {
					src := img[c*hw+ih*g.iw:][:g.iw]
					drow := dst[(c*g.kh+r)*g.kw:][:g.kw]
					for s := sLo; s < sHi; s++ {
						drow[s] += (int64(src[ix+s]) - zp) << lane
					}
				}
			}
		}
		if x++; x == g.ow {
			x, y = 0, y+1
		}
	}
}

// packPointwise is pack for a 1×1 unpadded kernel, one value per channel
// and position: channel by channel, each panel element written once from
// its three lanes. at[i] is position p0+i's offset in a plane, so at
// stride 1 a channel's positions are one contiguous run of it.
func (g *gemmArgs) packPointwise(pk []int64, img []int8, p0, p1 int) {
	var at [3 * gemmMaxTriples]int
	n := p1 - p0
	for i := range n {
		p := p0 + i
		at[i] = p/g.ow*g.sh*g.iw + p%g.ow*g.sw
	}
	full, hw, zp := n/3, g.h*g.iw, int8(g.zp)
	for c := 0; c < g.c; c++ {
		plane := img[c*hw:][:hw]
		for j := range full {
			pk[j*g.d+c] = int64(plane[at[3*j]]) + int64(plane[at[3*j+1]])<<laneBits + int64(plane[at[3*j+2]])<<(2*laneBits)
		}
		if r := n - 3*full; r > 0 {
			// The unused lanes of a triple p1 cuts short hold the zero point.
			v := [3]int8{zp, zp, zp}
			for l := range r {
				v[l] = plane[at[3*full+l]]
			}
			pk[full*g.d+c] = int64(v[0]) + int64(v[1])<<laneBits + int64(v[2])<<(2*laneBits)
		}
	}
}

// block runs one (image, row block) tile: pack the triple panel once,
// then sweep it with every output channel, four at a time.
func (g *gemmArgs) block(worker, b int) {
	n := b / g.nrb
	p0 := (b % g.nrb) * g.rows
	p1 := min(g.p, p0+g.rows)
	triples := (p1 - p0 + 2) / 3
	d, ld := g.d, g.ld
	pk := g.bufs[worker][:triples*d]
	g.pack(pk, n, p0, p1)
	base := (n*g.kTot + g.kOff) * g.p
	k := 0
	for ; k+4 <= g.k; k += 4 {
		c0, c1, c2, c3 := g.zp*g.wsum[k], g.zp*g.wsum[k+1], g.zp*g.wsum[k+2], g.zp*g.wsum[k+3]
		for j := 0; j < triples; j++ {
			var l0, l1, l2, l3 laneSums
			for d0 := 0; d0 < d; d0 += g.chunk {
				a := pk[j*d+d0 : j*d+min(d, d0+g.chunk)]
				s0, s1, s2, s3 := laneDot4(a, g.wRows[k*ld+d0:], ld)
				l0.add(s0)
				l1.add(s1)
				l2.add(s2)
				l3.add(s3)
			}
			o, m := base+k*g.p+p0+3*j, min(3, p1-p0-3*j)
			g.store(o, &l0, c0, m)
			g.store(o+g.p, &l1, c1, m)
			g.store(o+2*g.p, &l2, c2, m)
			g.store(o+3*g.p, &l3, c3, m)
		}
	}
	for ; k < g.k; k++ {
		corr := g.zp * g.wsum[k]
		wrow := g.wRows[k*ld:][:d]
		for j := 0; j < triples; j++ {
			l := laneDot(pk[j*d:][:d], wrow, g.chunk)
			g.store(base+k*g.p+p0+3*j, &l, corr, min(3, p1-p0-3*j))
		}
	}
}

// runGemm executes the prepared gemmArgs, fanning out over the pool
// only when it is actually parallel (the inline path builds no
// closure).
func runGemm(g *gemmArgs, n int, pool *Pool) {
	nb := n * g.nrb
	if pool.parallel() && nb > 1 {
		pool.Run(nb, g.block)
		return
	}
	for b := 0; b < nb; b++ {
		g.block(0, b)
	}
}

// dwArgs is the depthwise specialization: one block is one (image,
// channel) plane convolved by its own kh×kw kernel.
type dwArgs struct {
	epilogue
	in, w          []int8
	bufs           [][]int64
	taps           []int // tap t reads padded-plane offset taps[t]
	c, h, iw       int
	oh, ow         int
	kh, kw         int
	sh, sw, ph, pw int
	zp             int32
	chunk          int // taps per lane split (laneTerms)
}

// block convolves plane b. The whole plane is first copied (so its output
// plane may overwrite it) as (v − zp) into a zero-fringed buffer,
// lane-packed at the column stride: element j of a buffer row carries
// columns j, j+sw and j+2sw of that row (packRow), so a tap sum at output
// column x carries x+1 and x+2 too, and no tap needs a bounds test. Each
// tap feeds two such sums (columns x..x+5); the buffer's 3·sw lanes of
// slack keep the second in bounds at a row's end, past which columns drop.
func (d *dwArgs) block(worker, b int) {
	plane := d.in[b*d.h*d.iw:][:d.h*d.iw]
	wk := d.w[b%d.c*len(d.taps):][:len(d.taps)]
	base := b * d.oh * d.ow
	bw := d.iw + 2*d.pw
	buf := d.bufs[worker][:(d.h+2*d.ph)*bw+3*d.sw]
	clear(buf[:d.ph*bw])
	for y := 0; y < d.h; y++ {
		d.packRow(buf[(y+d.ph)*bw:][:bw], plane[y*d.iw:][:d.iw])
	}
	clear(buf[(d.h+d.ph)*bw:])
	for y := 0; y < d.oh; y++ {
		for x := 0; x < d.ow; x += 6 {
			win := buf[y*d.sh*bw+x*d.sw:]
			win2 := win[3*d.sw:]
			var lo, hi laneSums
			for t0 := 0; t0 < len(wk); t0 += d.chunk {
				taps := d.taps[t0:min(len(wk), t0+d.chunk)]
				wc := wk[t0:][:len(taps)]
				var s, u int64
				for t, off := range taps {
					wv := int64(wc[t])
					s += win[off] * wv
					u += win2[off] * wv
				}
				lo.add(s)
				hi.add(u)
			}
			o, m := base+y*d.ow+x, min(6, d.ow-x)
			d.store(o, &lo, 0, min(3, m))
			if m > 3 {
				d.store(o+3, &hi, 0, m-3)
			}
		}
	}
}

// packRow fills dst, one zero-fringed buffer row, from the plane row
// src: element j carries the (v − zp) of columns j−pw, j−pw+sw and
// j−pw+2sw in its three lanes, zero where a column is outside the row.
// A lane that would read past the row's end feeds only a column past
// the output's end, so it may read zero instead of the next row.
func (d *dwArgs) packRow(dst []int64, src []int8) {
	zp, sw := int64(d.zp), d.sw
	// Interior: columns 0..n−1 have all three lanes inside the row.
	n := max(0, len(src)-2*sw)
	if n > 0 {
		zp3 := zp + zp<<laneBits + zp<<(2*laneBits)
		s0, s1, s2 := src[:n], src[sw:][:n], src[2*sw:][:n]
		in := dst[d.pw:][:n]
		for x := range in {
			in[x] = int64(s0[x]) + int64(s1[x])<<laneBits + int64(s2[x])<<(2*laneBits) - zp3
		}
	}
	// Edges: the left fringe, then the last columns and the right fringe.
	edge := func(j int) {
		var v int64
		for k := range 3 {
			if x := j - d.pw + k*sw; uint(x) < uint(len(src)) {
				v += (int64(src[x]) - zp) << (k * laneBits)
			}
		}
		dst[j] = v
	}
	for j := range d.pw {
		edge(j)
	}
	for j := d.pw + n; j < len(dst); j++ {
		edge(j)
	}
}

func runDw(d *dwArgs, n int, pool *Pool) {
	nb := n * d.c
	if pool.parallel() && nb > 1 {
		pool.Run(nb, d.block)
		return
	}
	for b := 0; b < nb; b++ {
		d.block(0, b)
	}
}

// Conv2DBlocked is the blocked/parallel counterpart of Conv2D: same
// contract, same (bit-identical) result for an int8 zero point.
// pool may be nil for a sequential run.
func Conv2DBlocked(in, w *Int8, zpIn int32, p ConvParams, pool *Pool) (*Int32, error) {
	var out Int32
	var sc Scratch
	if err := Conv2DBlockedInto(&out, in, w, zpIn, p, nil, &sc, pool); err != nil {
		return nil, err
	}
	return &out, nil
}

// Conv2DBlockedInto runs the blocked convolution into out, reusing
// out's backing array and sc's pack buffers when they are large enough
// — a warm call allocates nothing (sequentially; the parallel fan-out
// builds one closure). wsum may carry precomputed per-output-channel
// weight sums (Σ_d w[k,d]); pass nil to have them computed into sc.
func Conv2DBlockedInto(out *Int32, in, w *Int8, zpIn int32, p ConvParams, wsum []int32, sc *Scratch, pool *Pool) error {
	return conv2DBlocked(out, nil, QuantParams{}, nil, in, w, 0, zpIn, p, wsum, WeightBound(w), sc, pool, 0)
}

// Conv2DRequantInto is Conv2DBlockedInto fused with RequantizeInto: the
// epilogue requantizes each corrected sum under q and writes int8
// straight into dst, byte-identical to the two passes and without their
// int32 tensor. Weight row k (the C·kh·kw weights of output channel k)
// starts at w.Data[k·ld], so w may be the top-left corner of a larger
// panel; ld 0 means packed rows. wsum and wMax must be WeightSums(w, ld)
// and its bound, which a caller that runs the same weights repeatedly
// computes once. A non-nil res is a residual operand of the output's
// shape: each requantized value is added to res's with int8 saturation,
// byte-identical to a saturating add after the conv, and dst may alias
// res.
func Conv2DRequantInto(dst *Int8, in, w *Int8, ld int, zpIn int32, p ConvParams, wsum []int32, wMax int, q QuantParams, res *Int8, sc *Scratch, pool *Pool) error {
	return conv2DBlocked(nil, dst, q, res, in, w, ld, zpIn, p, wsum, wMax, sc, pool, 0)
}

// weightRows checks that w's n rows of d weights, ld apart (0 means d),
// fit its data, and returns the stride.
func weightRows(w *Int8, n, d, ld int) (int, error) {
	if ld == 0 {
		ld = d
	}
	if ld < d || len(w.Data) < (n-1)*ld+d {
		return 0, fmt.Errorf("%w: %d weight rows of %d, %d apart, in %d weights", ErrShapeMismatch, n, d, ld, len(w.Data))
	}
	return ld, nil
}

// conv2DBlocked runs the convolution into acc, or requantized under q
// (plus res, when set) into dst when acc is nil, splitting its lanes
// every chunk terms, or every laneTerms terms when chunk is 0. Only
// tests pass a chunk, to show that one term past laneTerms breaks parity.
func conv2DBlocked(acc *Int32, dst *Int8, q QuantParams, res *Int8, in, w *Int8, ld int, zpIn int32, p ConvParams, wsum []int32, wMax int, sc *Scratch, pool *Pool, chunk int) error {
	if p.Groups == 0 {
		p.Groups = 1
	}
	is, ws := in.Shape, w.Shape
	if is.C%p.Groups != 0 || ws.N%p.Groups != 0 {
		return fmt.Errorf("%w: channels %d / kernels %d not divisible by groups %d", ErrShapeMismatch, is.C, ws.N, p.Groups)
	}
	if ws.C != is.C/p.Groups {
		return fmt.Errorf("%w: weight channels %d != input channels %d / groups %d", ErrShapeMismatch, ws.C, is.C, p.Groups)
	}
	d := ws.C * ws.H * ws.W
	ld, err := weightRows(w, ws.N, d, ld)
	if err != nil {
		return err
	}
	oh := OutDim(is.H, ws.H, p.StrideH, p.PadH)
	ow := OutDim(is.W, ws.W, p.StrideW, p.PadW)
	if oh <= 0 || ow <= 0 {
		return fmt.Errorf("%w: non-positive output %dx%d", ErrShapeMismatch, oh, ow)
	}
	os := Shape{N: is.N, C: ws.N, H: oh, W: ow}
	var ep epilogue
	if acc != nil {
		EnsureInt32(acc, os)
		ep.acc = acc.Data
	} else {
		if res != nil {
			if res.Shape != os || len(res.Data) < os.Elems() {
				return fmt.Errorf("%w: residual %v for output %v", ErrShapeMismatch, res.Shape, os)
			}
			ep.res = res.Data
		}
		EnsureInt8(dst, os)
		ep.q8, ep.scale, ep.zp = dst.Data, q.Scale, int64(q.ZeroPoint)
	}

	// Depthwise: direct per-plane taps; a patch row would be C·kh·kw
	// long just to multiply one kernel's worth of it.
	if p.Groups > 1 && p.Groups == is.C && ws.C == 1 && ws.N == is.C && ld == d {
		bw := is.W + 2*p.PadW
		if cap(sc.taps) < ws.H*ws.W {
			sc.taps = make([]int, ws.H*ws.W)
		}
		taps := sc.taps[:ws.H*ws.W]
		for t := range taps {
			taps[t] = t/ws.W*bw + t%ws.W
		}
		if chunk == 0 {
			chunk = laneTerms(dwLane, wMax, len(taps))
		}
		d := &sc.dw
		*d = dwArgs{
			epilogue: ep, in: in.Data, w: w.Data, taps: taps,
			bufs: sc.laneBufs(pool.Workers(), (is.H+2*p.PadH)*bw+3*p.StrideW),
			c:    is.C, h: is.H, iw: is.W, oh: oh, ow: ow,
			kh: ws.H, kw: ws.W, sh: p.StrideH, sw: p.StrideW,
			ph: p.PadH, pw: p.PadW, zp: zpIn, chunk: chunk,
		}
		runDw(d, is.N, pool)
		return nil
	}

	if wsum == nil {
		wsum = sc.wsumBuf(ws.N)
		WeightSums(wsum, w, ld)
	}
	kPerGroup := ws.N / p.Groups
	cPerGroup := is.C / p.Groups
	pRows := oh * ow
	// Row blocks: as many triples as the panel bound allows, then evened
	// out so an image's blocks carry the same load.
	rows := 3 * min(gemmMaxTriples, max(1, gemmPanel/d))
	nrb := (pRows + rows - 1) / rows
	rows = (pRows + nrb - 1) / nrb
	rows = (rows + 2) / 3 * 3
	bufs := sc.laneBufs(pool.Workers(), rows/3*d)
	if chunk == 0 {
		chunk = laneTerms(denseLane, wMax, d)
	}
	for grp := 0; grp < p.Groups; grp++ {
		kOff := grp * kPerGroup
		g := &sc.gemm
		*g = gemmArgs{
			epilogue: ep, in: in.Data, bufs: bufs,
			wRows: w.Data[kOff*ld:], wsum: wsum[kOff:],
			cTot: is.C, c0: grp * cPerGroup, c: cPerGroup,
			h: is.H, iw: is.W, ow: ow, kh: ws.H, kw: ws.W,
			sh: p.StrideH, sw: p.StrideW, ph: p.PadH, pw: p.PadW,
			p: pRows, k: kPerGroup, d: d, ld: ld,
			kTot: ws.N, kOff: kOff, zp: zpIn,
			rows: rows, nrb: nrb, chunk: chunk,
		}
		runGemm(g, is.N, pool)
	}
	return nil
}

// linArgs is the fully-connected kernel: out[n·K+k] = dot(in row n,
// w row k) − zp·wsum[k], blocked over output channels; w row k starts
// at w[k·ld].
type linArgs struct {
	out   []int32
	in, w []int8
	n, k  int
	c, ld int
	zp    int32
	wsum  []int32
}

func (l *linArgs) block(_, b int) {
	k0 := b * linKBlock
	k1 := min(l.k, k0+linKBlock)
	for n := 0; n < l.n; n++ {
		row := l.in[n*l.c : n*l.c+l.c]
		for k := k0; k < k1; k++ {
			l.out[n*l.k+k] = dotInt8(row, l.w[k*l.ld:][:l.c]) - l.zp*l.wsum[k]
		}
	}
}

// LinearBlockedInto is the blocked counterpart of Linear ([N,C,1,1] ×
// [K,C,1,1] → [N,K,1,1]), bit-identical, writing into out. Weight row k
// starts at w.Data[k·ld], as in Conv2DRequantInto.
func LinearBlockedInto(out *Int32, in, w *Int8, ld int, zpIn int32, wsum []int32, sc *Scratch, pool *Pool) error {
	is, ws := in.Shape, w.Shape
	if is.C != ws.C {
		return fmt.Errorf("%w: in C=%d w C=%d", ErrShapeMismatch, is.C, ws.C)
	}
	ld, err := weightRows(w, ws.N, ws.C, ld)
	if err != nil {
		return err
	}
	EnsureInt32(out, Shape{N: is.N, C: ws.N, H: 1, W: 1})
	if wsum == nil {
		wsum = sc.wsumBuf(ws.N)
		WeightSums(wsum, w, ld)
	}
	l := &sc.lin
	*l = linArgs{out: out.Data, in: in.Data, w: w.Data, n: is.N, k: ws.N, c: is.C, ld: ld, zp: zpIn, wsum: wsum}
	nb := (ws.N + linKBlock - 1) / linKBlock
	if pool.parallel() && nb > 1 {
		pool.Run(nb, l.block)
		return nil
	}
	for b := 0; b < nb; b++ {
		l.block(0, b)
	}
	return nil
}
