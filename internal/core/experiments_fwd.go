package core

import (
	"fmt"
	"time"

	"sushi/internal/infer"
	"sushi/internal/tensor"
)

// fwdConvShape is the representative mid-network convolution the
// kernel arm times (identical to internal/tensor's benchConvShapes, so
// the trajectory entry and the go-test benchmark watch the same cell).
var fwdConvShape = struct {
	in, w tensor.Shape
	p     tensor.ConvParams
}{
	in: tensor.Shape{N: 1, C: 128, H: 14, W: 14},
	w:  tensor.Shape{N: 128, C: 128, H: 3, W: 3},
	p:  tensor.ConvParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1},
}

// FwdBench is the real-execution data-plane microbenchmark: the
// blocked/arena Forward and the blocked convolution kernel timed head
// to head with the reference scans they replaced, single-threaded, and
// reported as speedup metrics.
func FwdBench() (*Result, error) {
	super, fr, err := frontierFor(MobileNetV3)
	if err != nil {
		return nil, err
	}
	eng := infer.NewEngine(infer.NewWeightStore(super, 1))
	defer eng.Close()
	eng.SetWorkers(1)
	in := tensor.RandomInt8(tensor.Shape{N: 1, C: 3, H: 224, W: 224}, 99)
	var out tensor.Int8

	const fastN, refN = 3, 2
	// Warm: first call sizes the arena; excluded from timing.
	if err := eng.ForwardBatchInto(fr[0], in, 1, &out); err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; i < fastN; i++ {
		if err := eng.ForwardBatchInto(fr[0], in, 1, &out); err != nil {
			return nil, err
		}
	}
	fwdNs := float64(time.Since(start).Nanoseconds()) / fastN
	start = time.Now()
	for i := 0; i < refN; i++ {
		if _, err := eng.ForwardReference(fr[0], in); err != nil {
			return nil, err
		}
	}
	refNs := float64(time.Since(start).Nanoseconds()) / refN

	cin := tensor.RandomInt8(fwdConvShape.in, 1)
	cw := tensor.RandomInt8(fwdConvShape.w, 2)
	var cout tensor.Int32
	var sc tensor.Scratch
	const convN, convRefN = 5, 2
	if err := tensor.Conv2DBlockedInto(&cout, cin, cw, 0, fwdConvShape.p, nil, &sc, nil); err != nil {
		return nil, err
	}
	start = time.Now()
	for i := 0; i < convN; i++ {
		if err := tensor.Conv2DBlockedInto(&cout, cin, cw, 0, fwdConvShape.p, nil, &sc, nil); err != nil {
			return nil, err
		}
	}
	convNs := float64(time.Since(start).Nanoseconds()) / convN
	start = time.Now()
	for i := 0; i < convRefN; i++ {
		if _, err := tensor.Conv2D(cin, cw, 0, fwdConvShape.p); err != nil {
			return nil, err
		}
	}
	convRefNs := float64(time.Since(start).Nanoseconds()) / convRefN

	row := func(name string, fast, ref float64) []string {
		return []string{name,
			fmt.Sprintf("%.1f", fast/1e6),
			fmt.Sprintf("%.1f", ref/1e6),
			fmt.Sprintf("%.1f", ref/fast)}
	}
	return &Result{
		Name:   "fwdbench",
		Title:  "Real-execution data plane vs reference scans, single-threaded, MobileNetV3",
		Header: []string{"path", "fast ms/op", "reference ms/op", "speedup"},
		Rows: [][]string{
			row("forward (SubNet A, 224x224)", fwdNs, refNs),
			row("conv2d (128x128x3x3 @14x14)", convNs, convRefNs),
		},
		Notes: []string{
			"forward: arena ForwardBatchInto vs the pre-blocking ForwardReference pipeline",
			"conv2d: lane-packed blocked kernel vs the naive quadruple-loop scan",
		},
		Metrics: map[string]float64{
			"forward_ns_per_op":     fwdNs,
			"forward_ref_ns_per_op": refNs,
			"forward_speedup_x":     refNs / fwdNs,
			"conv_ns_per_op":        convNs,
			"conv_ref_ns_per_op":    convRefNs,
			"conv_speedup_x":        convRefNs / convNs,
		},
	}, nil
}
