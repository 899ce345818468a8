package accel

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"sushi/internal/nn"
	"sushi/internal/tensor"
)

// ExecStats counts the work the functional executor performed, used to
// cross-check the analytic latency model: the scheduled cycle count must
// be able to accommodate the MACs actually executed.
type ExecStats struct {
	// MACs is the number of multiply-accumulates executed.
	MACs int64
	// Tiles is the number of (kernel-tile, channel-tile) steps.
	Tiles int64
	// OBAccumulations counts in-place partial-sum accumulations in the
	// Output Buffer (oAct reuse, Fig. 8c).
	OBAccumulations int64
}

// ExecuteConv runs a 2-D convolution exactly the way the DPE array
// schedules it (§4.2.1, Fig. 7): kernels are partitioned into KP-row
// tiles kept weight-stationary, input channels into CP-column tiles, and
// each DPE reduces one R*S kernel slice per output pixel while partial
// sums accumulate in place in the Output Buffer. The result must be
// bit-identical to the tensor.Conv2D golden reference — the functional
// proof that the SGS dataflow computes real convolutions.
func ExecuteConv(cfg *Config, in *tensor.Int8, w *tensor.Int8, zp int32, p tensor.ConvParams) (*tensor.Int32, ExecStats, error) {
	var st ExecStats
	if err := cfg.Validate(); err != nil {
		return nil, st, err
	}
	if p.Groups == 0 {
		p.Groups = 1
	}
	is, ws := in.Shape, w.Shape
	if ws.C != is.C/p.Groups || is.C%p.Groups != 0 {
		return nil, st, fmt.Errorf("accel: functional conv shape mismatch in=%v w=%v groups=%d", is, ws, p.Groups)
	}
	oh := tensor.OutDim(is.H, ws.H, p.StrideH, p.PadH)
	ow := tensor.OutDim(is.W, ws.W, p.StrideW, p.PadW)
	if oh <= 0 || ow <= 0 {
		return nil, st, fmt.Errorf("accel: functional conv non-positive output %dx%d", oh, ow)
	}
	ob := tensor.NewInt32(tensor.Shape{N: is.N, C: ws.N, H: oh, W: ow})
	cPerGroup := is.C / p.Groups
	kPerGroup := ws.N / p.Groups

	for n := 0; n < is.N; n++ {
		// Kernel-level parallelism: KP kernels per weight-stationary tile.
		for kt := 0; kt < ws.N; kt += cfg.KP {
			kEnd := kt + cfg.KP
			if kEnd > ws.N {
				kEnd = ws.N
			}
			// Channel-level parallelism: CP input channels per tile.
			for ct := 0; ct < cPerGroup; ct += cfg.CP {
				cEnd := ct + cfg.CP
				if cEnd > cPerGroup {
					cEnd = cPerGroup
				}
				st.Tiles++
				for k := kt; k < kEnd; k++ {
					g := k / kPerGroup
					for c := ct; c < cEnd; c++ {
						ic := g*cPerGroup + c
						for y := 0; y < oh; y++ {
							for x := 0; x < ow; x++ {
								// One DPE reduction: the R*S kernel slice.
								var acc int32
								for r := 0; r < ws.H; r++ {
									ih := y*p.StrideH + r - p.PadH
									if ih < 0 || ih >= is.H {
										continue
									}
									for s := 0; s < ws.W; s++ {
										iw := x*p.StrideW + s - p.PadW
										if iw < 0 || iw >= is.W {
											continue
										}
										acc += (int32(in.At(n, ic, ih, iw)) - zp) *
											int32(w.At(k, c, r, s))
										st.MACs++
									}
								}
								// In-place OB accumulation across channel
								// tiles (final oActs leave once).
								ob.Data[((n*ws.N+k)*oh+y)*ow+x] += acc
								st.OBAccumulations++
							}
						}
					}
				}
			}
		}
	}
	return ob, st, nil
}

func smallConfig() Config {
	c := ZCU104()
	c.KP, c.CP = 4, 3
	return c
}

func TestExecuteConvMatchesGolden(t *testing.T) {
	cfg := smallConfig()
	cases := []struct {
		name string
		in   tensor.Shape
		w    tensor.Shape
		zp   int32
		p    tensor.ConvParams
	}{
		{"3x3", tensor.Shape{N: 1, C: 8, H: 10, W: 10}, tensor.Shape{N: 12, C: 8, H: 3, W: 3}, 0,
			tensor.ConvParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
		{"1x1", tensor.Shape{N: 1, C: 16, H: 7, W: 7}, tensor.Shape{N: 8, C: 16, H: 1, W: 1}, 4,
			tensor.ConvParams{StrideH: 1, StrideW: 1}},
		{"stride2", tensor.Shape{N: 1, C: 6, H: 12, W: 12}, tensor.Shape{N: 10, C: 6, H: 3, W: 3}, -7,
			tensor.ConvParams{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}},
		{"5x5", tensor.Shape{N: 2, C: 4, H: 9, W: 9}, tensor.Shape{N: 5, C: 4, H: 5, W: 5}, 2,
			tensor.ConvParams{StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tensor.RandomInt8(tc.in, 31)
			w := tensor.RandomInt8(tc.w, 32)
			want, err := tensor.Conv2D(in, w, tc.zp, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := ExecuteConv(&cfg, in, w, tc.zp, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			if got.Shape != want.Shape {
				t.Fatalf("shape %v != %v", got.Shape, want.Shape)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("mismatch at %d: dpe=%d golden=%d", i, got.Data[i], want.Data[i])
				}
			}
			if st.MACs == 0 || st.Tiles == 0 {
				t.Error("executor reported no work")
			}
		})
	}
}

func TestExecuteConvDepthwise(t *testing.T) {
	cfg := smallConfig()
	in := tensor.RandomInt8(tensor.Shape{N: 1, C: 6, H: 8, W: 8}, 41)
	w := tensor.RandomInt8(tensor.Shape{N: 6, C: 1, H: 3, W: 3}, 42)
	p := tensor.ConvParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 6}
	want, err := tensor.Conv2D(in, w, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ExecuteConv(&cfg, in, w, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("depthwise mismatch at %d", i)
		}
	}
}

func TestExecuteConvQuick(t *testing.T) {
	cfg := smallConfig()
	f := func(seed uint64, cRaw, kRaw, hRaw uint8, zp int8) bool {
		c := int(cRaw)%6 + 1
		k := int(kRaw)%8 + 1
		h := int(hRaw)%6 + 4
		in := tensor.RandomInt8(tensor.Shape{N: 1, C: c, H: h, W: h}, seed|1)
		w := tensor.RandomInt8(tensor.Shape{N: k, C: c, H: 3, W: 3}, seed|2)
		p := tensor.ConvParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		want, err := tensor.Conv2D(in, w, int32(zp), p)
		if err != nil {
			return false
		}
		got, st, err := ExecuteConv(&cfg, in, w, int32(zp), p)
		if err != nil {
			return false
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				return false
			}
		}
		// The analytic cycle model must schedule at least as many MAC
		// slots as the executor performed (no under-provisioning). We
		// can't compare exactly because padding skips MACs at edges.
		return st.MACs <= int64(want.Shape.Elems())*int64(c*9)
	}
	qc := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, qc); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteConvRejectsBadShapes(t *testing.T) {
	cfg := smallConfig()
	in := tensor.RandomInt8(tensor.Shape{N: 1, C: 4, H: 8, W: 8}, 1)
	w := tensor.RandomInt8(tensor.Shape{N: 4, C: 5, H: 3, W: 3}, 2)
	if _, _, err := ExecuteConv(&cfg, in, w, 0, tensor.ConvParams{StrideH: 1, StrideW: 1}); err == nil {
		t.Fatal("channel mismatch accepted")
	}
	huge := tensor.RandomInt8(tensor.Shape{N: 1, C: 4, H: 2, W: 2}, 3)
	wBig := tensor.RandomInt8(tensor.Shape{N: 4, C: 4, H: 5, W: 5}, 4)
	if _, _, err := ExecuteConv(&cfg, huge, wBig, 0, tensor.ConvParams{StrideH: 1, StrideW: 1}); err == nil {
		t.Fatal("non-positive output accepted")
	}
	bad := cfg
	bad.KP = 0
	if _, _, err := ExecuteConv(&bad, in, tensor.RandomInt8(tensor.Shape{N: 4, C: 4, H: 3, W: 3}, 5), 0,
		tensor.ConvParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestAnalyticCoversFunctionalMACs checks the latency model never claims
// fewer cycles than the DPE array needs for the MACs the functional
// executor actually performs (at peak MACs/cycle).
func TestAnalyticCoversFunctionalMACs(t *testing.T) {
	cfg := smallConfig()
	in := tensor.RandomInt8(tensor.Shape{N: 1, C: 10, H: 12, W: 12}, 51)
	w := tensor.RandomInt8(tensor.Shape{N: 14, C: 10, H: 3, W: 3}, 52)
	p := tensor.ConvParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	_, st, err := ExecuteConv(&cfg, in, w, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	l := nnConvLayer(10, 14, 12, 12, 3, 1, 1)
	cycles := computeCycles(&cfg, l)
	capacity := cycles * int64(cfg.PeakMACsPerCycle())
	if capacity < st.MACs {
		t.Errorf("analytic capacity %d MACs < functional %d MACs", capacity, st.MACs)
	}
}

// nnConvLayer builds an nn.Layer for the analytic model in tests.
func nnConvLayer(c, k, inH, inW, kern, stride, pad int) *nn.Layer {
	return &nn.Layer{
		Kind: nn.Conv, C: c, K: k, R: kern, S: kern,
		InH: inH, InW: inW,
		OutH: (inH+2*pad-kern)/stride + 1, OutW: (inW+2*pad-kern)/stride + 1,
		Stride: stride, Pad: pad,
	}
}
