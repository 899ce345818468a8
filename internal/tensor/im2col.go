package tensor

// Im2Col lowers a convolution input into a matrix whose rows are output
// positions and whose columns are the (c, r, s) patch elements, the layout
// SushiAccel's Line Buffer produces for the DPE array. Padding positions
// are represented by the input zero point so that the subsequent
// zero-subtraction stage (Fig. 7, "ZS") cancels them exactly.
//
// The result is shaped [N, OH*OW, C*R*S, 1] flattened into an Int8 tensor
// with Shape{N, OH*OW, C*R*S, 1}.
func Im2Col(in *Int8, kh, kw int, zp int8, p ConvParams) *Int8 {
	if p.Groups == 0 {
		p.Groups = 1
	}
	is := in.Shape
	oh := OutDim(is.H, kh, p.StrideH, p.PadH)
	ow := OutDim(is.W, kw, p.StrideW, p.PadW)
	cols := NewInt8(Shape{N: is.N, C: oh * ow, H: is.C * kh * kw, W: 1})
	im2colInto(cols.Data, in, 0, is.C, kh, kw, zp, p, oh, ow)
	return cols
}

// im2colInto fills dst with im2col rows covering channels [c0, c1) of
// every image: N·OH·OW rows of (c1-c0)·kh·kw elements in (c, r, s)
// order, batch-fused so row n·OH·OW+y·OW+x is image n's position
// (y, x). For a padding-free convolution the s-run of a fixed (c, r)
// is a contiguous kw-slice of the input row regardless of stride, so
// the fast path copies runs instead of scattering elements; the padded
// path still copies the valid middle of each run and fills the
// zero-point fringes.
func im2colInto(dst []int8, in *Int8, c0, c1, kh, kw int, zp int8, p ConvParams, oh, ow int) {
	is := in.Shape
	d := (c1 - c0) * kh * kw
	if p.PadH == 0 && p.PadW == 0 {
		for n := 0; n < is.N; n++ {
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					di := ((n*oh+y)*ow + x) * d
					for c := c0; c < c1; c++ {
						base := (n*is.C + c) * is.H * is.W
						for r := 0; r < kh; r++ {
							src := base + (y*p.StrideH+r)*is.W + x*p.StrideW
							if kw == 1 {
								dst[di] = in.Data[src]
								di++
								continue
							}
							copy(dst[di:di+kw], in.Data[src:src+kw])
							di += kw
						}
					}
				}
			}
		}
		return
	}
	for n := 0; n < is.N; n++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				di := ((n*oh+y)*ow + x) * d
				// Valid s-range: 0 <= x*StrideW + s - PadW < W.
				sLo := p.PadW - x*p.StrideW
				if sLo < 0 {
					sLo = 0
				}
				sHi := is.W + p.PadW - x*p.StrideW
				if sHi > kw {
					sHi = kw
				}
				for c := c0; c < c1; c++ {
					base := (n*is.C + c) * is.H * is.W
					for r := 0; r < kh; r++ {
						ih := y*p.StrideH + r - p.PadH
						if ih < 0 || ih >= is.H || sLo >= sHi {
							for s := 0; s < kw; s++ {
								dst[di+s] = zp
							}
							di += kw
							continue
						}
						for s := 0; s < sLo; s++ {
							dst[di+s] = zp
						}
						src := base + ih*is.W + x*p.StrideW - p.PadW
						copy(dst[di+sLo:di+sHi], in.Data[src+sLo:src+sHi])
						for s := sHi; s < kw; s++ {
							dst[di+s] = zp
						}
						di += kw
					}
				}
			}
		}
	}
}
