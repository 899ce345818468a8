package infer

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
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
// Each SubNet's plan is built once: per layer its role, parameters,
// weight panel, per-channel weight sums and weight bound, and the
// activation plan — every tensor gets an offset in one int8 slab, placed
// so that no two tensors live at the same time share a byte. Adds fold
// into the conv before them, stride-1 depthwise convs run in place, and
// an expand runs with the strided depthwise conv after it one channel
// group at a time (see plan). A batch runs one image at a time, so the
// engine's arena is one image's slab, an int32 accumulator for the
// fully-connected and pooling layers only (convolutions requantize in
// their kernels' epilogue) and the kernels' pack buffers, none of them
// scaling with the batch: the steady state of ForwardBatchInto
// allocates nothing, derives nothing and runs through the blocked
// kernels.
// Results are bit-identical to ForwardReference, the original unblocked
// pipeline kept as the oracle.
//
// Weights are Subgraph Stationary: one image per (elastic layer, kernel
// size) holds the union of the SubNets' weights, not their sum, and
// every plan's panel is a view of an image's top-left corner.
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
	images  map[imageKey]*image
	a       arena
}

// imageKey names one weight image: an elastic layer at one kernel
// size. A kernel crop (a 3x3 under a 7x7) gets its own image, since its
// weights are not a corner of the larger kernel's rows.
type imageKey struct{ layer, kern int }

// image is the packed [k, c, kern, kern] weights of one imageKey: the
// bounding box of every panel the engine has prepared from it, rows
// c·kern² apart. views lists the steps whose panels are its corners, so
// growing the box re-points them.
type image struct {
	k, c  int
	data  []int8
	views []*step
}

// prepared is the per-SubNet state the engine computes once: the layer
// plan, its activation tensors and the arena's per-image sizes.
type prepared struct {
	steps []step
	// spans are the activation tensors; spans[0] is the staged input.
	spans []span
	// slab is the activation plan's per-image size: every span lies in
	// [0, slab). accMax counts the accumulator elements of the layers
	// that requantize through it (Linear and global-average Pool).
	slab, accMax int
}

// span is one activation tensor of a plan: its per-image shape, the
// steps that write it (-1 for the staged input) and last read it, and
// its per-image offset in the slab.
type span struct {
	shape         tensor.Shape
	def, end, off int
}

// step is one layer of a SubNet's plan: everything ForwardBatchInto
// would otherwise re-derive from the layer on every call.
type step struct {
	l *nn.Layer
	// in and out index the spans the layer reads and writes; res, when
	// not -1, indexes the operand of the add folded into its epilogue. A
	// folded conv writes over res; a stride-1 depthwise conv whose input
	// dies at it writes over in; a downsample reads its block's input.
	in, out, res int
	// grp, when not 0, marks an expand run with the strided depthwise
	// conv after it grp channels at a time; out is one group's span.
	grp int
	cp  tensor.ConvParams
	// q requantizes the layer's accumulators.
	q tensor.QuantParams
	// w is the layer's [K, C, kern, kern] weight panel, a view of its
	// image whose rows (KCRS storage is already the GEMM layout) sit ld
	// apart; wsum is its per-output-channel sums for the zero-point
	// correction and wMax its largest |w|, which sets the kernels' lane
	// chunks.
	w    tensor.Int8
	ld   int
	wsum []int32
	wMax int
}

// rows returns output channels [c0, c0+n) of st's panel as a panel of
// its own, rows still ld apart.
func (st *step) rows(c0, n int) tensor.Int8 {
	s := st.w.Shape
	d := s.C * s.H * s.W
	s.N = n
	return tensor.Int8{Shape: s, Data: st.w.Data[c0*st.ld:][:(n-1)*st.ld+d]}
}

// point re-slices st's panel out of im.
func (st *step) point(im *image) {
	s := st.w.Shape
	st.ld = im.c * s.H * s.W
	st.w.Data = im.data[:(s.N-1)*st.ld+s.C*s.H*s.W]
}

// view makes st's weight panel a corner of its layer's image, growing
// the image (and re-pointing its other views) when the panel falls
// outside the box prepared so far. An image is stored only once it
// holds weights.
func (e *Engine) view(st *step) error {
	l := st.l
	d := panelDims(l)
	key := imageKey{l.BlockID, l.R}
	im := e.images[key]
	if im == nil {
		im = &image{}
	}
	if d.K > im.k || d.C > im.c {
		box := supernet.LayerDims{K: max(d.K, im.k), C: max(d.C, im.c)}
		w, err := e.ws.LayerWeights(l.BlockID, box, l.R)
		if err != nil {
			return err
		}
		im.k, im.c, im.data = box.K, box.C, w.Data
		for _, v := range im.views {
			v.point(im)
		}
	}
	e.images[key] = im
	st.w.Shape = tensor.Shape{N: d.K, C: d.C, H: l.R, W: l.R}
	st.point(im)
	im.views = append(im.views, st)
	st.wsum = make([]int32, d.K)
	st.wMax = tensor.WeightSums(st.wsum, &st.w, st.ld)
	return nil
}

// arena is the engine's reusable buffer set. slab holds every
// activation of the running plan; x, y and res are the current step's
// views of its input, output and residual operand (a grouped pair's
// group), kept here so that handing them to the kernels allocates
// nothing. acc is the int32 accumulator of the Linear and global-average
// Pool layers; sc carries the kernels' pack buffers.
type arena struct {
	slab      []int8
	x, y, res tensor.Int8
	acc       tensor.Int32
	sc        tensor.Scratch
}

// presize grows the slab and the accumulator to the SubNet's one-image
// high-water mark in one step, honoring the "sized once per SubNet"
// arena rule.
func (a *arena) presize(p *prepared) {
	if len(a.slab) < p.slab {
		a.slab = make([]int8, p.slab)
	}
	if cap(a.acc.Data) < p.accMax {
		a.acc.Data = make([]int32, p.accMax)
	}
}

// view points t at span s. The full slice expression caps t at its own
// region, so a kernel's EnsureInt8 can never grow it into a neighbour.
func (a *arena) view(t *tensor.Int8, s *span) *tensor.Int8 {
	t.Shape = s.shape
	o, n := s.off, s.shape.Elems()
	t.Data = a.slab[o : o+n : o+n]
	return t
}

// NewEngine builds an engine over a weight store. The kernel pool
// defaults to GOMAXPROCS workers (SetWorkers overrides).
func NewEngine(ws *WeightStore) *Engine {
	return &Engine{ws: ws, zp: 0, workers: runtime.GOMAXPROCS(0),
		prep: map[*supernet.SubNet]*prepared{}, images: map[imageKey]*image{}}
}

// SetWorkers bounds the kernel worker pool (n <= 0 resets to
// GOMAXPROCS). workers=1 runs every kernel inline — bit-identical to
// any other width, the property the parity suite pins.
func (e *Engine) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.Close()
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

// prepare memoizes the SubNet's plan. Every weight layer is checked
// against the engine's SuperNet before the first panel is viewed, so a
// rejected plan leaves the images as they were.
func (e *Engine) prepare(sn *supernet.SubNet) (*prepared, error) {
	if p, ok := e.prep[sn]; ok {
		return p, nil
	}
	p, err := e.plan(sn)
	if err != nil {
		return nil, err
	}
	for i := range p.steps {
		if l := p.steps[i].l; l.WeightBytes() > 0 {
			el, err := e.ws.layer(l.BlockID, panelDims(l), l.R)
			if err == nil && el.Name != l.Name {
				err = fmt.Errorf("infer: elastic layer %d is %s", l.BlockID, el.Name)
			}
			if err != nil {
				return nil, fmt.Errorf("infer: %s: %w", l.Name, err)
			}
		}
	}
	for i := range p.steps {
		if st := &p.steps[i]; st.l.WeightBytes() > 0 {
			if err := e.view(st); err != nil {
				return nil, fmt.Errorf("infer: %s: %w", st.l.Name, err)
			}
		}
	}
	e.prep[sn] = p
	return p, nil
}

// plan builds the SubNet's layer plan and activation plan from its
// layer walk alone; no weight is read. The residual bookkeeping is
// resolved here, by the same name suffixes ForwardReference matches on
// every call: a block's entry holds its input as the shortcut, and the
// add folds into the conv before it, which writes over its other
// operand (the shortcut, or a downsample's conv3 output). Each span
// lives from the step that writes it to its last reader, the logits
// until the copy-out; a grouped expand's input lives through its
// depthwise step.
func (e *Engine) plan(sn *supernet.SubNet) (*prepared, error) {
	layers := sn.Model.Layers
	first := &layers[0]
	p := &prepared{spans: []span{{shape: tensor.Shape{N: 1, C: first.C, H: first.InH, W: first.InW}, def: -1}}}
	read := func(s, i int) int {
		p.spans[s].end = i
		return s
	}
	kind := func(i int) nn.LayerKind {
		if i < len(layers) {
			return layers[i].Kind
		}
		return -1
	}
	x, held := 0, -1
	for i := 0; i < len(layers); i++ {
		l := &layers[i]
		st := step{l: l, res: -1}
		if strings.HasSuffix(l.Name, ".conv1") || strings.HasSuffix(l.Name, ".expand") {
			held = x
		}
		src, outC, down := x, l.K, false
		switch l.Kind {
		case nn.Conv, nn.DepthwiseConv:
			st.cp = tensor.ConvParams{StrideH: l.Stride, StrideW: l.Stride, PadH: l.Pad, PadW: l.Pad}
			reduction := l.C * l.R * l.S
			if l.Kind == nn.DepthwiseConv {
				st.cp.Groups, outC, reduction = l.C, l.C, l.R*l.S
			}
			st.q = e.staticScale(reduction)
			if down = strings.HasSuffix(l.Name, ".downsample"); down {
				if held < 0 {
					return nil, fmt.Errorf("infer: %s: no shortcut to downsample", l.Name)
				}
				// The add must consume the downsample's output next: a
				// second downsample would read it, where ForwardReference
				// reads the block's input.
				if kind(i+1) != nn.Add {
					return nil, fmt.Errorf("infer: %s: downsample not followed by its add", l.Name)
				}
				src, st.res = held, x
			}
		case nn.Linear:
			st.q = e.staticScale(l.C)
			p.accMax = max(p.accMax, l.K)
		case nn.Pool:
			outC = l.C
			st.q = tensor.QuantParams{Scale: 1.0 / float64(l.InH*l.InW), ZeroPoint: 0}
			if l.OutH == 1 && l.OutW == 1 {
				p.accMax = max(p.accMax, l.C)
			}
		case nn.Add:
			return nil, fmt.Errorf("infer: %s: no convolution to fold into", l.Name)
		default:
			return nil, fmt.Errorf("infer: %s: unsupported kind %v", l.Name, l.Kind)
		}
		t := len(p.steps)
		st.in = read(src, t)
		shape := tensor.Shape{N: 1, C: outC, H: l.OutH, W: l.OutW}
		switch {
		case (l.Kind == nn.Conv || l.Kind == nn.DepthwiseConv) && kind(i+1) == nn.Add:
			// Fold rule: the add's other operand (the shortcut, or conv3's
			// output after a downsample) dies at it; the conv writes over it.
			if !down {
				st.res = held
			}
			if st.res < 0 {
				return nil, fmt.Errorf("infer: %s: no residual operand", layers[i+1].Name)
			}
			st.out, held = read(st.res, t), -1
			i++
		case l.Kind == nn.DepthwiseConv && l.Stride == 1 && src != held && shape == p.spans[src].shape:
			// In-place rule: each plane is packed before it is stored.
			st.out = src
		default:
			if strings.HasSuffix(l.Name, ".expand") && kind(i+1) == nn.DepthwiseConv && layers[i+1].Stride > 1 && kind(i+2) != nn.Add {
				// Group rule: a quarter of the channels, rounded up to
				// the kernels' 4-wide tile.
				st.grp = ((l.K+3)/4 + 3) / 4 * 4
				shape.C = min(l.K, st.grp)
				read(src, t+1)
			}
			st.out = len(p.spans)
			p.spans = append(p.spans, span{shape: shape, def: t, end: t})
		}
		x = st.out
		p.steps = append(p.steps, st)
	}
	read(x, len(p.steps))
	p.slab = place(p.spans)
	return p, nil
}

// place gives each span, largest first and the later-written of equal
// size first, the lowest per-image offset at which it overlaps no placed
// span whose lifetime overlaps its own, and returns the slab size.
func place(spans []span) int {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(spans[b].shape.Elems()-spans[a].shape.Elems(), spans[b].def-spans[a].def)
	})
	slab := 0
	var live []*span
	for k, i := range order {
		s := &spans[i]
		live = live[:0]
		for _, j := range order[:k] {
			if t := &spans[j]; t.def <= s.end && s.def <= t.end {
				live = append(live, t)
			}
		}
		slices.SortFunc(live, func(a, b *span) int { return a.off - b.off })
		n := s.shape.Elems()
		for _, t := range live {
			if s.off+n <= t.off {
				break
			}
			s.off = max(s.off, t.off+t.shape.Elems())
		}
		slab = max(slab, s.off+n)
	}
	return slab
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
// batch <= 0 means input.Shape.N. The images run one at a time: each is
// staged into the plan's input span, runs the whole plan (a grouped
// expand and its depthwise conv as one pair, group by group), and has
// its logits copied into its row of dst, so the arena holds one image's
// activations at any batch. Every image is computed, tiled ones too. A
// warm (SubNet, dst) pair allocates nothing on the sequential path
// (TestForwardAllocs pins this); a parallel pool adds a bounded handful
// of closure allocations per layer.
func (e *Engine) ForwardBatchInto(sn *supernet.SubNet, input *tensor.Int8, batch int, dst *tensor.Int8) error {
	if err := checkInput(sn, input); err != nil {
		return err
	}
	if batch <= 0 {
		batch = input.Shape.N
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
	a.presize(p)
	out := p.spans[p.steps[len(p.steps)-1].out].shape
	classes, img := out.Elems(), p.spans[0].shape.Elems()
	out.N = batch
	tensor.EnsureInt8(dst, out)
	for b := 0; b < batch; b++ {
		// Stage image b (the one image when tiling); the caller's
		// tensor is never aliased.
		in := input.Data
		if input.Shape.N == batch {
			in = in[b*img : (b+1)*img]
		}
		copy(a.view(&a.x, &p.spans[0]).Data, in)
		for i := range p.steps {
			st := &p.steps[i]
			if st.grp > 0 {
				continue // the depthwise step after it runs the pair
			}
			l := st.l
			x, y := a.view(&a.x, &p.spans[st.in]), a.view(&a.y, &p.spans[st.out])
			switch l.Kind {
			case nn.Conv, nn.DepthwiseConv:
				if i > 0 && p.steps[i-1].grp > 0 {
					err = e.pair(p, &p.steps[i-1], st)
					break
				}
				var res *tensor.Int8
				if st.res >= 0 {
					res = a.view(&a.res, &p.spans[st.res])
				}
				err = tensor.Conv2DRequantInto(y, x, &st.w, st.ld, e.zp, st.cp, st.wsum, st.wMax, st.q, res, &a.sc, e.pool)
			case nn.Linear:
				if err = tensor.LinearBlockedInto(&a.acc, x, &st.w, st.ld, e.zp, st.wsum, &a.sc, e.pool); err == nil {
					tensor.RequantizeInto(y, &a.acc, st.q)
				}
			case nn.Pool:
				if l.OutH == 1 && l.OutW == 1 {
					tensor.GlobalAvgPoolInto(&a.acc, x, e.zp)
					tensor.RequantizeInto(y, &a.acc, st.q)
				} else {
					tensor.MaxPoolInto(y, x, l.R, l.Stride, l.Pad)
				}
			}
			if err != nil {
				return fmt.Errorf("infer: %s: %w", l.Name, err)
			}
		}
		// The last step's output is image b's logits.
		copy(dst.Data[b*classes:], a.y.Data)
	}
	return nil
}

// pair runs a grouped expand ex and the strided depthwise conv dw after
// it one channel group at a time: expand rows [c0, c0+n) fill the group
// span, and depthwise rows [c0, c0+n) turn it into channels [c0, c0+n)
// of dw's output, a contiguous slice of it. Depthwise channel c reads
// only expand channel c, so a group needs no halo and no padding rows.
func (e *Engine) pair(p *prepared, ex, dw *step) error {
	a := &e.a
	x, g, y := a.view(&a.x, &p.spans[ex.in]), a.view(&a.res, &p.spans[ex.out]), a.view(&a.y, &p.spans[dw.out])
	gd, yd, c, cp := g.Data, y.Data, y.Shape.C, dw.cp
	gPlane, yPlane := g.Shape.H*g.Shape.W, y.Shape.H*y.Shape.W
	for c0 := 0; c0 < c; c0 += ex.grp {
		n := min(ex.grp, c-c0)
		ew, dww := ex.rows(c0, n), dw.rows(c0, n)
		g.Shape.C, g.Data = n, gd[:n*gPlane]
		y.Shape.C, y.Data = n, yd[c0*yPlane:(c0+n)*yPlane:(c0+n)*yPlane]
		cp.Groups = n
		err := tensor.Conv2DRequantInto(g, x, &ew, ex.ld, e.zp, ex.cp, ex.wsum[c0:], ex.wMax, ex.q, nil, &a.sc, e.pool)
		if err == nil {
			err = tensor.Conv2DRequantInto(y, g, &dww, dw.ld, e.zp, cp, dw.wsum[c0:], dw.wMax, dw.q, nil, &a.sc, e.pool)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// checkInput rejects an empty SubNet, and an input that does not match
// its first layer's geometry or whose data does not hold its shape.
func checkInput(sn *supernet.SubNet, input *tensor.Int8) error {
	if sn == nil || sn.Model == nil || len(sn.Model.Layers) == 0 {
		return fmt.Errorf("infer: nil or empty SubNet")
	}
	first := &sn.Model.Layers[0]
	if input.Shape.C != first.C || input.Shape.H != first.InH || input.Shape.W != first.InW {
		return fmt.Errorf("infer: input %v does not match first layer (C=%d, %dx%d)",
			input.Shape, first.C, first.InH, first.InW)
	}
	if len(input.Data) != input.Shape.Elems() {
		return fmt.Errorf("infer: input %v holds %d values, want %d", input.Shape, len(input.Data), input.Shape.Elems())
	}
	return nil
}

// ForwardReference runs the original pre-blocking pipeline — naive
// kernels, a fresh weight materialization per layer and an allocation
// per layer. It is kept verbatim as the oracle the parity tests (and
// the calibration speedup yardstick) compare the fast path against; its
// weights come from LayerWeights, never from the engine's images.
func (e *Engine) ForwardReference(sn *supernet.SubNet, input *tensor.Int8) (*tensor.Int8, error) {
	if err := checkInput(sn, input); err != nil {
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
			w, err := e.ws.LayerWeights(l.BlockID, panelDims(l), l.R)
			if err != nil {
				return nil, fmt.Errorf("infer: %s: %w", l.Name, err)
			}
			acc, err := tensor.Conv2D(src, w, e.zp, p)
			if err != nil {
				return nil, fmt.Errorf("infer: %s: %w", l.Name, err)
			}
			y := tensor.RequantizeTensor(acc, e.staticScale(l.C/max(1, p.Groups)*l.R*l.S))
			if strings.HasSuffix(l.Name, ".downsample") {
				downsampled = y
			} else {
				x = y
			}
		case nn.Linear:
			w, err := e.ws.LayerWeights(l.BlockID, panelDims(l), l.R)
			if err != nil {
				return nil, fmt.Errorf("infer: %s: %w", l.Name, err)
			}
			acc, err := tensor.Linear(x, w, e.zp)
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
