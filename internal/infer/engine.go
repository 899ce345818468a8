package infer

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"sushi/internal/nn"
	"sushi/internal/supernet"
	"sushi/internal/tensor"
)

// Engine runs quantized forward passes for SubNets of one SuperNet.
// Requantization scales are static (derived from layer geometry), so the
// whole pipeline is deterministic and data-independent — the property the
// tests rely on.
//
// The engine owns an arena of reusable buffers (three rotating int8
// activations, one of which a residual block holds as its shortcut; an
// int32 accumulator for the fully-connected and pooling layers only,
// since convolutions requantize in their kernels' epilogue; the
// kernels' pack buffers) and memoizes each SubNet's plan — per layer,
// its role, parameters, materialized weights, per-channel weight sums
// and weight bound — so the steady state of ForwardBatchInto allocates
// nothing, derives nothing and runs through the blocked kernels.
// Results are bit-identical to ForwardReference, the original unblocked
// pipeline kept as the oracle.
//
// An Engine is NOT safe for concurrent use; give each goroutine its
// own (they share nothing but the WeightStore, which is read-only).
type Engine struct {
	ws *WeightStore
	// zp is the activation zero point used throughout.
	zp int32
	// workers bounds the kernel worker pool; pool is nil until a
	// parallel forward needs it.
	workers int
	pool    *tensor.Pool
	prep    map[*supernet.SubNet]*prepared
	a       arena
}

// prepared is the per-SubNet state the engine computes once: the layer
// plan and the arena's per-image high-water marks.
type prepared struct {
	steps []step
	// Per-image (batch=1) element maxima over the layer walk; the arena
	// is sized once per (SubNet, batch) from these. accMax counts only
	// the layers that requantize through the accumulator (Linear and
	// global-average Pool).
	actMax, accMax int
}

// step is one layer of a SubNet's plan: everything ForwardBatchInto
// would otherwise re-derive from the layer on every call.
type step struct {
	l *nn.Layer
	// entry marks a residual block's first layer, whose input is kept as
	// the shortcut; downsample marks the conv that transforms that
	// shortcut instead of x (prepare ensures the block's add follows it).
	entry, downsample bool
	cp                tensor.ConvParams
	// q requantizes the layer's accumulators.
	q tensor.QuantParams
	// w is the materialized weight tensor (a flattened row-major [K][D]
	// panel — KCRS storage is already the GEMM layout) and wsum its
	// per-output-channel sums for the zero-point correction; wMax is
	// its largest |w|, which sets the kernels' lane chunks.
	w    *tensor.Int8
	wsum []int32
	wMax int
}

// arena is the engine's reusable buffer set. act rotates through layer
// input and output; a residual block holds its input buffer as the
// shortcut (then the downsample's output, which replaces it) until its
// add folds it into x in place, so each layer writes to the one buffer
// that is neither its input nor the held shortcut. acc is the int32
// accumulator of the Linear and global-average Pool layers; sc carries
// the kernels' pack buffers.
type arena struct {
	act [3]tensor.Int8
	acc tensor.Int32
	sc  tensor.Scratch
}

// presize grows every arena buffer to the SubNet×batch high-water mark
// in one step, honoring the "sized once per SubNet" arena rule.
func (a *arena) presize(p *prepared, batch int) {
	for i := range a.act {
		if cap(a.act[i].Data) < batch*p.actMax {
			a.act[i].Data = make([]int8, batch*p.actMax)
		}
	}
	if cap(a.acc.Data) < batch*p.accMax {
		a.acc.Data = make([]int32, batch*p.accMax)
	}
}

// NewEngine builds an engine over a weight store. The kernel pool
// defaults to GOMAXPROCS workers (SetWorkers overrides).
func NewEngine(ws *WeightStore) *Engine {
	return &Engine{ws: ws, zp: 0, workers: runtime.GOMAXPROCS(0)}
}

// SetWorkers bounds the kernel worker pool (n <= 0 resets to
// GOMAXPROCS). workers=1 runs every kernel inline — bit-identical to
// any other width, the property the parity suite pins.
func (e *Engine) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if e.pool != nil {
		e.pool.Close()
		e.pool = nil
	}
	e.workers = n
}

// Close releases the kernel worker pool (if one was ever spawned).
func (e *Engine) Close() {
	if e.pool != nil {
		e.pool.Close()
		e.pool = nil
	}
}

// staticScale derives a data-independent requantization scale for a
// layer. A worst-case accumulator bound would shrink activations by a
// constant factor every layer and collapse deep networks to zero, so the
// scale is variance-preserving instead: accumulator std is about
// sqrt(reduction) * sigma_in * sigma_w for independent operands, and
// dividing by sqrt(reduction)*sigma_w maps it back to sigma_in. Extreme
// accumulators saturate, which is the standard int8 behaviour.
func (e *Engine) staticScale(reduction int) tensor.QuantParams {
	const sigmaW = 4.5 // weights are uniform-ish in [-7, 7]
	return tensor.QuantParams{Scale: 1.0 / (math.Sqrt(float64(reduction)) * sigmaW), ZeroPoint: 0}
}

// prepare memoizes the SubNet's layer plan and arena maxima. The
// residual bookkeeping is resolved here, by the same name suffixes
// ForwardReference matches on every call.
func (e *Engine) prepare(sn *supernet.SubNet) (*prepared, error) {
	if p, ok := e.prep[sn]; ok {
		return p, nil
	}
	weights, err := e.ws.SubNetWeights(sn)
	if err != nil {
		return nil, err
	}
	p := &prepared{steps: make([]step, len(sn.Model.Layers))}
	shortcut := false
	for i := range sn.Model.Layers {
		l := &sn.Model.Layers[i]
		st := &p.steps[i]
		*st = step{l: l, w: weights[i]}
		if st.w != nil {
			st.wsum = make([]int32, st.w.Shape.N)
			tensor.WeightSums(st.wsum, st.w)
			st.wMax = tensor.WeightBound(st.w)
		}
		if strings.HasSuffix(l.Name, ".conv1") || strings.HasSuffix(l.Name, ".expand") {
			st.entry, shortcut = true, true
		}
		outC := l.K
		inElems := l.C * l.InH * l.InW
		switch l.Kind {
		case nn.Conv, nn.DepthwiseConv:
			st.cp = tensor.ConvParams{StrideH: l.Stride, StrideW: l.Stride, PadH: l.Pad, PadW: l.Pad}
			reduction := l.C * l.R * l.S
			if l.Kind == nn.DepthwiseConv {
				st.cp.Groups, outC, reduction = l.C, l.C, l.R*l.S
			}
			st.q = e.staticScale(reduction)
			if st.downsample = strings.HasSuffix(l.Name, ".downsample"); st.downsample && !shortcut {
				return nil, fmt.Errorf("infer: %s: no shortcut to downsample", l.Name)
			}
			// Three buffers hold x, the shortcut and the downsample's
			// output only if the add consumes that output next.
			if st.downsample && (i+1 == len(sn.Model.Layers) || sn.Model.Layers[i+1].Kind != nn.Add) {
				return nil, fmt.Errorf("infer: %s: downsample not followed by its add", l.Name)
			}
		case nn.Linear:
			st.q = e.staticScale(l.C)
			p.accMax = maxInt(p.accMax, l.K)
		case nn.Pool:
			outC = l.C
			st.q = tensor.QuantParams{Scale: 1.0 / float64(l.InH*l.InW), ZeroPoint: 0}
			if l.OutH == 1 && l.OutW == 1 {
				p.accMax = maxInt(p.accMax, l.C)
			}
		case nn.Add:
			if !shortcut {
				return nil, fmt.Errorf("infer: %s: no residual operand", l.Name)
			}
			shortcut = false
		default:
			return nil, fmt.Errorf("infer: %s: unsupported kind %v", l.Name, l.Kind)
		}
		p.actMax = maxInt(p.actMax, maxInt(inElems, outC*l.OutH*l.OutW))
	}
	if e.prep == nil {
		e.prep = make(map[*supernet.SubNet]*prepared)
	}
	e.prep[sn] = p
	return p, nil
}

// Forward runs input through the SubNet and returns the logits tensor
// ([N, classes, 1, 1] int8). The input must match the model's first
// layer geometry ([N, C, H, W]). The returned tensor is freshly
// allocated (never an arena alias).
func (e *Engine) Forward(sn *supernet.SubNet, input *tensor.Int8) (*tensor.Int8, error) {
	var out tensor.Int8
	if err := e.ForwardBatchInto(sn, input, 0, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ForwardBatchInto runs a batch of images and writes the logits
// [batch, classes, 1, 1] into dst, reusing dst's backing array across
// calls. An input with N == batch supplies every image; an input with
// N == 1 is tiled across the batch (the calibration sweep's shape).
// batch <= 0 means input.Shape.N. A warm (SubNet, batch, dst) triple
// allocates nothing on the sequential path (TestForwardAllocs pins
// this); a parallel pool adds a bounded handful of closure allocations
// per layer.
func (e *Engine) ForwardBatchInto(sn *supernet.SubNet, input *tensor.Int8, batch int, dst *tensor.Int8) error {
	if sn == nil || sn.Model == nil || len(sn.Model.Layers) == 0 {
		return fmt.Errorf("infer: nil or empty SubNet")
	}
	if batch <= 0 {
		batch = input.Shape.N
	}
	first := &sn.Model.Layers[0]
	if input.Shape.C != first.C || input.Shape.H != first.InH || input.Shape.W != first.InW {
		return fmt.Errorf("infer: input %v does not match first layer (C=%d, %dx%d)",
			input.Shape, first.C, first.InH, first.InW)
	}
	if input.Shape.N != batch && input.Shape.N != 1 {
		return fmt.Errorf("infer: input batch %d incompatible with requested batch %d",
			input.Shape.N, batch)
	}
	p, err := e.prepare(sn)
	if err != nil {
		return err
	}
	if e.workers > 1 && e.pool == nil {
		e.pool = tensor.NewPool(e.workers)
	}
	a := &e.a
	a.presize(p, batch)

	// Stage the input into the arena (tiling one image across the batch
	// when needed); the caller's tensor is never aliased.
	cur := 0
	x := &a.act[cur]
	tensor.EnsureInt8(x, tensor.Shape{N: batch, C: input.Shape.C, H: input.Shape.H, W: input.Shape.W})
	if input.Shape.N == batch {
		copy(x.Data, input.Data)
	} else {
		img := input.Shape.C * input.Shape.H * input.Shape.W
		for b := 0; b < batch; b++ {
			copy(x.Data[b*img:(b+1)*img], input.Data[:img])
		}
	}

	// Residual bookkeeping: entering a block holds x's buffer as the
	// shortcut; a downsample replaces it with its output; an add folds it
	// back into x, saturating in place, and releases it.
	held := -1
	for i := range p.steps {
		st := &p.steps[i]
		l := st.l
		if st.entry {
			held = cur
		}
		next := (cur + 1) % 3
		if next == held {
			next = (next + 1) % 3
		}
		y := &a.act[next]
		switch l.Kind {
		case nn.Conv, nn.DepthwiseConv:
			src := x
			if st.downsample {
				src = &a.act[held]
			}
			if err := tensor.Conv2DRequantInto(y, src, st.w, e.zp, st.cp, st.wsum, st.wMax, st.q, &a.sc, e.pool); err != nil {
				return fmt.Errorf("infer: %s: %w", l.Name, err)
			}
			if st.downsample {
				held = next
				continue
			}
		case nn.Linear:
			if err := tensor.LinearBlockedInto(&a.acc, x, st.w, e.zp, st.wsum, &a.sc, e.pool); err != nil {
				return fmt.Errorf("infer: %s: %w", l.Name, err)
			}
			tensor.RequantizeInto(y, &a.acc, st.q)
		case nn.Pool:
			if l.OutH == 1 && l.OutW == 1 {
				tensor.GlobalAvgPoolInto(&a.acc, x, e.zp)
				tensor.RequantizeInto(y, &a.acc, st.q)
			} else {
				tensor.MaxPoolInto(y, x, l.R, l.Stride, l.Pad)
			}
		case nn.Add:
			if err := tensor.AddSatInt8(x, x, &a.act[held]); err != nil {
				return fmt.Errorf("infer: %s: %w", l.Name, err)
			}
			held = -1
			continue
		}
		x, cur = y, next
	}
	tensor.EnsureInt8(dst, x.Shape)
	copy(dst.Data, x.Data)
	return nil
}

// ForwardReference runs the original pre-blocking pipeline — naive
// kernels, a fresh weight materialization and an allocation per layer.
// It is kept verbatim as the oracle the parity tests (and the
// calibration speedup yardstick) compare the fast path against.
func (e *Engine) ForwardReference(sn *supernet.SubNet, input *tensor.Int8) (*tensor.Int8, error) {
	if sn == nil || sn.Model == nil || len(sn.Model.Layers) == 0 {
		return nil, fmt.Errorf("infer: nil or empty SubNet")
	}
	first := &sn.Model.Layers[0]
	if input.Shape.C != first.C || input.Shape.H != first.InH || input.Shape.W != first.InW {
		return nil, fmt.Errorf("infer: input %v does not match first layer (C=%d, %dx%d)",
			input.Shape, first.C, first.InH, first.InW)
	}
	weights, err := e.ws.SubNetWeights(sn)
	if err != nil {
		return nil, err
	}
	x := input
	var shortcut *tensor.Int8
	var downsampled *tensor.Int8
	for i := range sn.Model.Layers {
		l := &sn.Model.Layers[i]
		if strings.HasSuffix(l.Name, ".conv1") || strings.HasSuffix(l.Name, ".expand") {
			shortcut = x
			downsampled = nil
		}
		switch l.Kind {
		case nn.Conv, nn.DepthwiseConv:
			src := x
			if strings.HasSuffix(l.Name, ".downsample") {
				src = shortcut
			}
			p := tensor.ConvParams{
				StrideH: l.Stride, StrideW: l.Stride,
				PadH: l.Pad, PadW: l.Pad,
			}
			if l.Kind == nn.DepthwiseConv {
				p.Groups = l.C
			}
			acc, err := tensor.Conv2D(src, weights[i], e.zp, p)
			if err != nil {
				return nil, fmt.Errorf("infer: %s: %w", l.Name, err)
			}
			y := tensor.RequantizeTensor(acc, e.staticScale(l.C/maxInt(1, p.Groups)*l.R*l.S))
			if strings.HasSuffix(l.Name, ".downsample") {
				downsampled = y
			} else {
				x = y
			}
		case nn.Linear:
			acc, err := tensor.Linear(x, weights[i], e.zp)
			if err != nil {
				return nil, fmt.Errorf("infer: %s: %w", l.Name, err)
			}
			x = tensor.RequantizeTensor(acc, e.staticScale(l.C))
		case nn.Pool:
			if l.OutH == 1 && l.OutW == 1 {
				acc := tensor.GlobalAvgPool(x, e.zp)
				x = tensor.RequantizeTensor(acc, tensor.QuantParams{
					Scale: 1.0 / float64(l.InH*l.InW), ZeroPoint: 0,
				})
			} else {
				x = tensor.MaxPool(x, l.R, l.Stride, l.Pad)
			}
		case nn.Add:
			other := downsampled
			if other == nil {
				other = shortcut
			}
			if other == nil {
				return nil, fmt.Errorf("infer: %s: no residual operand", l.Name)
			}
			y, err := addInt8(x, other)
			if err != nil {
				return nil, fmt.Errorf("infer: %s: %w", l.Name, err)
			}
			x = y
			shortcut, downsampled = nil, nil
		default:
			return nil, fmt.Errorf("infer: %s: unsupported kind %v", l.Name, l.Kind)
		}
	}
	return x, nil
}

// addInt8 adds two int8 tensors with saturation (reference path).
func addInt8(a, b *tensor.Int8) (*tensor.Int8, error) {
	if a.Shape != b.Shape {
		return nil, fmt.Errorf("infer: residual shapes %v vs %v", a.Shape, b.Shape)
	}
	out := tensor.NewInt8(a.Shape)
	for i := range a.Data {
		v := int32(a.Data[i]) + int32(b.Data[i])
		if v > 127 {
			v = 127
		}
		if v < -128 {
			v = -128
		}
		out.Data[i] = int8(v)
	}
	return out, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
