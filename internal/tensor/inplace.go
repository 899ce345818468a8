package tensor

// In-place counterparts of the pooling reference ops. They write into
// caller-owned tensors through EnsureInt8/EnsureInt32, so a warm buffer
// is reused and the inference engine's steady state stays
// allocation-free. Results are bit-identical to the allocating reference
// versions.

// GlobalAvgPoolInto is GlobalAvgPool into a reusable accumulator
// tensor: per-channel int32 sums of (v - zpIn), division left to
// requantization.
func GlobalAvgPoolInto(dst *Int32, in *Int8, zpIn int32) {
	s := in.Shape
	EnsureInt32(dst, Shape{N: s.N, C: s.C, H: 1, W: 1})
	plane := s.H * s.W
	for nc := 0; nc < s.N*s.C; nc++ {
		src := in.Data[nc*plane : nc*plane+plane]
		var acc int32
		for _, v := range src {
			acc += int32(v) - zpIn
		}
		dst.Data[nc] = acc
	}
}

// MaxPoolInto is MaxPool into a reusable tensor: max over k×k windows,
// padded positions ignored (never counted as zero), a fully-padded
// window yielding -128 exactly as the reference does.
func MaxPoolInto(dst *Int8, in *Int8, k, stride, pad int) {
	s := in.Shape
	oh := OutDim(s.H, k, stride, pad)
	ow := OutDim(s.W, k, stride, pad)
	EnsureInt8(dst, Shape{N: s.N, C: s.C, H: oh, W: ow})
	for nc := 0; nc < s.N*s.C; nc++ {
		plane := in.Data[nc*s.H*s.W : (nc+1)*s.H*s.W]
		outPlane := dst.Data[nc*oh*ow : (nc+1)*oh*ow]
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				best := int8(-128)
				seen := false
				for r := 0; r < k; r++ {
					ih := y*stride + r - pad
					if ih < 0 || ih >= s.H {
						continue
					}
					row := plane[ih*s.W:]
					for q := 0; q < k; q++ {
						iw := x*stride + q - pad
						if iw < 0 || iw >= s.W {
							continue
						}
						if v := row[iw]; !seen || v > best {
							best = v
							seen = true
						}
					}
				}
				outPlane[y*ow+x] = best
			}
		}
	}
}
