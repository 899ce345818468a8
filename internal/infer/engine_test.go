package infer

// Tests for the arena engine: bit-identity against the pre-blocking
// reference pipeline, batch semantics, worker-count invariance, and
// the zero-alloc steady state.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"sushi/internal/nn"
	"sushi/internal/supernet"
	"sushi/internal/tensor"
)

func mobv3Fixture(t *testing.T) (*Engine, *supernet.SubNet) {
	t.Helper()
	s := supernet.NewOFAMobileNetV3()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(NewWeightStore(s, 1))
	t.Cleanup(e.Close)
	return e, fr[0]
}

// referenceInput is the image the reference comparisons forward, and
// referenceLogits memoizes ForwardReference on it by SuperNet and
// SubNet name: the oracle takes seconds per SubNet, and several tests
// pin against it. The package's tests run sequentially.
var (
	referenceInput  = tensor.RandomInt8(tensor.Shape{N: 1, C: 3, H: 224, W: 224}, 17)
	referenceLogits = map[string]*tensor.Int8{}
)

func reference(t *testing.T, s *supernet.SuperNet, sn *supernet.SubNet) *tensor.Int8 {
	t.Helper()
	key := s.Name + "/" + sn.Name
	if ref, ok := referenceLogits[key]; ok {
		return ref
	}
	ref, err := NewEngine(NewWeightStore(s, 1)).ForwardReference(sn, referenceInput)
	if err != nil {
		t.Fatal(err)
	}
	referenceLogits[key] = ref
	return ref
}

// TestForwardMatchesReference pins the arena/blocked pipeline
// bit-identical to the original naive pipeline (kept as
// ForwardReference), sequentially and under a multi-worker pool.
// ForwardReference re-derives every layer's role and parameters by
// name on each call, so this also pins the engine's per-layer plan. The
// largest mobilenetv3 SubNet adds the 5x5/7x7 depthwise layers, the
// smallest resnet50 SubNet the padded dense 3x3/7x7 convolutions, the
// max-pool and the downsample shortcuts; their references take seconds,
// so -short and -race runs keep only the smallest SubNet. The smallest
// mobilenetv3's stage2.block0 (72 expanded channels → groups of 20, 20,
// 20 and 12) is the grouped pair's short-last-group case.
func TestForwardMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		net   *supernet.SuperNet
		large bool
		slow  bool
	}{
		{"mobilenetv3-smallest", supernet.NewOFAMobileNetV3(), false, false},
		{"mobilenetv3-largest", supernet.NewOFAMobileNetV3(), true, true},
		{"resnet50-smallest", supernet.NewOFAResNet50(), false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && (raceEnabled || testing.Short()) {
				t.Skip("the reference forward takes seconds")
			}
			fr, err := tc.net.Frontier()
			if err != nil {
				t.Fatal(err)
			}
			sn := fr[0]
			if tc.large {
				sn = fr[len(fr)-1]
			}
			e := NewEngine(NewWeightStore(tc.net, 1))
			defer e.Close()
			ref := reference(t, tc.net, sn)
			// workers=1 == workers=K at the full-forward level too.
			for _, workers := range []int{1, 4} {
				e.SetWorkers(workers)
				fast, err := e.Forward(sn, referenceInput)
				if err != nil {
					t.Fatal(err)
				}
				if fast.Shape != ref.Shape {
					t.Fatalf("workers=%d: shape %v != reference %v", workers, fast.Shape, ref.Shape)
				}
				for i := range ref.Data {
					if fast.Data[i] != ref.Data[i] {
						t.Fatalf("workers=%d: fast[%d]=%d != reference %d", workers, i, fast.Data[i], ref.Data[i])
					}
				}
			}
		})
	}
}

// TestForwardBatchMatchesReference runs two distinct images through a
// random mobilenetv3 SubNet at batch 2 and pins each slot against
// ForwardReference on its image, so a SubNet other than the frontier's
// is checked at a batch other than the 1 and 4 the other parity tests
// use.
func TestForwardBatchMatchesReference(t *testing.T) {
	if raceEnabled {
		t.Skip("the reference forward takes seconds")
	}
	s := supernet.NewOFAMobileNetV3()
	sn, err := s.Instantiate(s.RandomSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(NewWeightStore(s, 1))
	defer e.Close()
	imgs := []*tensor.Int8{referenceInput, tensor.RandomInt8(referenceInput.Shape, 19)}
	in := tensor.NewInt8(tensor.Shape{N: 2, C: 3, H: 224, W: 224})
	copy(in.Data, imgs[0].Data)
	copy(in.Data[len(imgs[0].Data):], imgs[1].Data)
	var out tensor.Int8
	if err := e.ForwardBatchInto(sn, in, 2, &out); err != nil {
		t.Fatal(err)
	}
	for b, img := range imgs {
		ref, err := e.ForwardReference(sn, img)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(ref.Data); !slices.Equal(out.Data[b*n:(b+1)*n], ref.Data) {
			t.Fatalf("%s: batch slot %d differs from ForwardReference", sn.Name, b)
		}
	}
}

// TestForwardBatchSemantics pins ForwardBatchInto on both families'
// smallest SubNets: four distinct images at batch 4 yield each image's
// batch-1 logits byte for byte, and a single image tiled across batch 3
// yields three copies of its batch-1 logits. Each image runs the plan
// on its own, so every slot is a batch-1 forward of its image.
func TestForwardBatchSemantics(t *testing.T) {
	for _, s := range []*supernet.SuperNet{supernet.NewOFAMobileNetV3(), supernet.NewOFAResNet50()} {
		if s.Name != "ofa-mobilenetv3" && raceEnabled {
			continue
		}
		fr, err := s.Frontier()
		if err != nil {
			t.Fatal(err)
		}
		sn := fr[0]
		e := NewEngine(NewWeightStore(s, 1))
		e.SetWorkers(1)
		shape := tensor.Shape{N: 1, C: 3, H: 224, W: 224}
		four := tensor.NewInt8(tensor.Shape{N: 4, C: 3, H: 224, W: 224})
		var singles [][]int8
		for b := range 4 {
			img := tensor.RandomInt8(shape, uint64(31+b))
			copy(four.Data[b*len(img.Data):], img.Data)
			single, err := e.Forward(sn, img)
			if err != nil {
				t.Fatal(err)
			}
			singles = append(singles, single.Data)
		}
		classes := len(singles[0])
		var batched tensor.Int8
		if err := e.ForwardBatchInto(sn, four, 4, &batched); err != nil {
			t.Fatal(err)
		}
		if batched.Shape != (tensor.Shape{N: 4, C: classes, H: 1, W: 1}) {
			t.Fatalf("%s: batch-4 logits shape %v", s.Name, batched.Shape)
		}
		for b, want := range singles {
			if !slices.Equal(batched.Data[b*classes:(b+1)*classes], want) {
				t.Fatalf("%s: batch-4 slot %d differs from its image's batch-1 forward", s.Name, b)
			}
		}

		one := tensor.RandomInt8(shape, 23)
		single, err := e.Forward(sn, one)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ForwardBatchInto(sn, one, 3, &batched); err != nil {
			t.Fatal(err)
		}
		if batched.Shape != (tensor.Shape{N: 3, C: classes, H: 1, W: 1}) {
			t.Fatalf("%s: tiled batch-3 logits shape %v", s.Name, batched.Shape)
		}
		for b := range 3 {
			if !slices.Equal(batched.Data[b*classes:(b+1)*classes], single.Data) {
				t.Fatalf("%s: tiled batch-3 slot %d differs from the batch-1 logits", s.Name, b)
			}
		}

		// Incompatible batch/input combinations are rejected.
		if err := e.ForwardBatchInto(sn, four, 3, &batched); err == nil {
			t.Fatalf("%s: N=4 input accepted for batch 3", s.Name)
		}
		e.Close()
	}
}

// TestForwardRejectsShortData: an input whose data does not hold its
// shape is an error, not a pass over stale arena bytes (batch 1) or a
// slice-bounds panic (one image tiled across batch 4).
func TestForwardRejectsShortData(t *testing.T) {
	e, sn := mobv3Fixture(t)
	in := &tensor.Int8{Shape: tensor.Shape{N: 1, C: 3, H: 224, W: 224}, Data: make([]int8, 100)}
	if _, err := e.Forward(sn, in); err == nil {
		t.Error("Forward accepted 100 values for a 1x3x224x224 input")
	}
	var out tensor.Int8
	if err := e.ForwardBatchInto(sn, in, 4, &out); err == nil {
		t.Error("ForwardBatchInto accepted 100 values tiled across batch 4")
	}
}

// TestForwardAllocs is the steady-state alloc gate (mirroring simq's
// TestSteadyStateAllocs): once warm, a sequential ForwardBatchInto
// must not allocate — the arena absorbs every layer's activations,
// accumulators, pack buffers, shortcut copies and the output.
func TestForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	e, sn := mobv3Fixture(t)
	e.SetWorkers(1)
	in := tensor.RandomInt8(tensor.Shape{N: 1, C: 3, H: 224, W: 224}, 41)
	var out tensor.Int8
	// Warm the arena, the prepared-weights memo and the output buffer.
	if err := e.ForwardBatchInto(sn, in, 2, &out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := e.ForwardBatchInto(sn, in, 2, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state ForwardBatchInto allocates %.0f times per run; want 0", allocs)
	}
}

// TestForwardAllocsSwitching is the alloc gate for SubGraph-stationary
// serving: one engine cycling the smallest SubNet, the largest, and the
// smallest at batch 4 allocates nothing once each SubNet has run once —
// switching re-uses the arena and the pack buffers at their high-water
// marks, and a batch runs its images through the same one-image arena.
func TestForwardAllocsSwitching(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := supernet.NewOFAMobileNetV3()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(NewWeightStore(s, 1))
	defer e.Close()
	e.SetWorkers(1)
	in := tensor.RandomInt8(tensor.Shape{N: 1, C: 3, H: 224, W: 224}, 43)
	var out tensor.Int8
	cycle := func() {
		for _, st := range []struct {
			sn    *supernet.SubNet
			batch int
		}{{fr[0], 1}, {fr[len(fr)-1], 1}, {fr[0], 4}} {
			if err := e.ForwardBatchInto(st.sn, in, st.batch, &out); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(2, cycle); allocs > 0 {
		t.Errorf("a warm S, L, S@4 cycle allocates %.0f times; want 0", allocs)
	}
}

// arenaBytes is the arena's activation and accumulator footprint (the
// kernels' per-worker pack buffers aside).
func arenaBytes(a *arena) int {
	return cap(a.slab) + 4*cap(a.acc.Data)
}

// TestEngineArenaFootprint pins the arena's shape: one activation slab
// of the largest one-image plan the SubNets run reach, whatever the
// batch — 802,816 bytes after the mobilenetv3 S, L, S@4 switch and
// still after an extra S@16, and 852,992 after resnet50's smallest
// SubNet — and an int32 accumulator no larger than one image's
// fully-connected and global-pool layers need, because convolutions
// requantize in their kernels' epilogue.
func TestEngineArenaFootprint(t *testing.T) {
	mbv3, resnet := supernet.NewOFAMobileNetV3(), supernet.NewOFAResNet50()
	mf, err := mbv3.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	rf, err := resnet.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		sn    *supernet.SubNet
		batch int
	}
	in := tensor.RandomInt8(tensor.Shape{N: 1, C: 3, H: 224, W: 224}, 47)
	for _, tc := range []struct {
		net  *supernet.SuperNet
		runs []run
		slab int
	}{
		{mbv3, []run{{mf[0], 1}, {mf[len(mf)-1], 1}, {mf[0], 4}, {mf[0], 16}}, 802816},
		{resnet, []run{{rf[0], 1}}, 852992},
	} {
		e := NewEngine(NewWeightStore(tc.net, 1))
		e.SetWorkers(1)
		var out tensor.Int8
		var slab, acc int
		for _, r := range tc.runs {
			if err := e.ForwardBatchInto(r.sn, in, r.batch, &out); err != nil {
				t.Fatal(err)
			}
			// No batch grows the slab past the largest one-image plan
			// run so far.
			if slab = max(slab, e.prep[r.sn].slab); cap(e.a.slab) != slab {
				t.Errorf("%s: after %s at batch %d the slab holds %d bytes, want %d", tc.net.Name, r.sn.Name, r.batch, cap(e.a.slab), slab)
			}
			for _, l := range r.sn.Model.Layers {
				switch {
				case l.Kind == nn.Linear:
					acc = max(acc, l.K)
				case l.Kind == nn.Pool && l.OutH == 1 && l.OutW == 1:
					acc = max(acc, l.C)
				}
			}
		}
		e.Close()
		if got := cap(e.a.slab); got != tc.slab || got != slab {
			t.Errorf("%s: activation slab holds %d bytes, want %d (largest one-image slab %d)", tc.net.Name, got, tc.slab, slab)
		}
		if got := cap(e.a.acc.Data); got > acc {
			t.Errorf("%s: accumulator holds %d int32, want at most max(FC K, pooled C) = %d", tc.net.Name, got, acc)
		}
	}
}

// TestPrepareRejectsDetachedDownsample: a downsample's output replaces
// the shortcut, which is only ForwardReference's operand if the add
// consumes it next, so prepare refuses a downsample that does not
// directly precede its add.
func TestPrepareRejectsDetachedDownsample(t *testing.T) {
	s := supernet.NewOFAResNet50()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	sn, model := *fr[0], *fr[0].Model
	model.Layers = slices.Clone(model.Layers)
	sn.Model = &model
	i := slices.IndexFunc(model.Layers, func(l nn.Layer) bool { return strings.HasSuffix(l.Name, ".downsample") })
	if i < 1 || model.Layers[i+1].Kind != nn.Add {
		t.Fatalf("resnet50 layer %d: want a downsample followed by its add", i)
	}
	// conv1 → conv2 → downsample → conv3 → add.
	model.Layers[i-1], model.Layers[i] = model.Layers[i], model.Layers[i-1]
	e := NewEngine(NewWeightStore(s, 1))
	defer e.Close()
	if _, err := e.prepare(fr[0]); err != nil {
		t.Fatalf("canonical order rejected: %v", err)
	}
	if _, err := e.prepare(&sn); err == nil || !strings.Contains(err.Error(), "not followed by its add") {
		t.Fatalf("detached downsample: err = %v", err)
	}
}

// TestPlanInvariants checks the activation plans of the frontier and
// 50 RandomSpecs of each family, built from the layer walk alone (no
// weight is materialized). Lifetimes are recomputed from the steps'
// reads: a span lives from the step that writes it to the last step
// that reads it, the logits to the copy-out. Then spans whose lifetimes
// overlap never share a byte, every span's view is one image's tensor
// at its own region of the slab, and the slab equals the largest live
// set.
func TestPlanInvariants(t *testing.T) {
	for _, s := range []*supernet.SuperNet{supernet.NewOFAMobileNetV3(), supernet.NewOFAResNet50()} {
		sns, err := s.Frontier()
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 50; seed++ {
			sn, err := s.Instantiate(s.RandomSpec(seed))
			if err != nil {
				t.Fatal(err)
			}
			sns = append(sns, sn)
		}
		e := NewEngine(NewWeightStore(s, 1))
		for _, sn := range sns {
			p, err := e.plan(sn)
			if err != nil {
				t.Fatal(err)
			}
			checkPlan(t, sn.Name, sn, p)
			e.a.presize(p)
			for i := range p.spans {
				sp := &p.spans[i]
				v := e.a.view(&e.a.x, sp)
				if v.Shape.N != 1 || cap(v.Data) != sp.shape.Elems() || &v.Data[0] != &e.a.slab[sp.off] || sp.off+cap(v.Data) > p.slab {
					t.Fatalf("%s: span %d's view is not one image at its region of the slab", sn.Name, i)
				}
			}
		}
		if len(e.images) != 0 {
			t.Fatalf("%s: planning materialized %d weight images", s.Name, len(e.images))
		}
	}
}

// checkPlan fails unless p's spans, with lifetimes recomputed from its
// steps, are placed without conflicts into a slab of the live-set bound,
// and p keeps the arena's three rules: a folded conv's out is its
// residual operand (every add is folded), a stride-1 depthwise conv
// whose input no later step reads writes over it, and a grouped
// expand's input lives through the depthwise step that runs the pair.
func checkPlan(t *testing.T, name string, sn *supernet.SubNet, p *prepared) {
	t.Helper()
	n := len(p.steps)
	def, end := make([]int, len(p.spans)), make([]int, len(p.spans))
	for i := range def {
		def[i], end[i] = n+1, -1
	}
	def[0] = -1
	// reads reports whether a step after i reads span s, as its input
	// (or residual operand, with res).
	reads := func(i, s int, res bool) bool {
		return slices.ContainsFunc(p.steps[i+1:], func(st step) bool { return st.res == s || !res && st.in == s })
	}
	adds, folded := 0, 0
	for _, l := range sn.Model.Layers {
		if l.Kind == nn.Add {
			adds++
		}
	}
	for i, st := range p.steps {
		l := st.l
		at := i
		pairs := i+1 < n && strings.HasSuffix(l.Name, ".expand") && p.steps[i+1].l.Kind == nn.DepthwiseConv && p.steps[i+1].l.Stride > 1
		if pairs != (st.grp > 0) {
			t.Fatalf("%s: %s is grouped: %t; precedes a strided depthwise conv: %t", name, l.Name, st.grp > 0, pairs)
		}
		if st.grp > 0 {
			at = i + 1
			if p.steps[i+1].in != st.out || st.grp%4 != 0 || 4*st.grp < l.K || 4*(st.grp-4) >= l.K {
				t.Fatalf("%s: %s's group of %d channels is not ⌈%d/4⌉ rounded up to 4, read by its depthwise conv", name, l.Name, st.grp, l.K)
			}
			if p.spans[st.in].end < i+1 {
				t.Fatalf("%s: grouped %s's input dies before its depthwise step", name, l.Name)
			}
		}
		end[st.in] = max(end[st.in], at)
		if st.res >= 0 {
			folded++
			end[st.res] = max(end[st.res], at)
			if st.out != st.res {
				t.Fatalf("%s: folded %s does not write over its residual operand", name, l.Name)
			}
		}
		dw1 := l.Kind == nn.DepthwiseConv && l.Stride == 1
		switch {
		case l.Kind == nn.Add:
			t.Fatalf("%s: %s is a step, not folded", name, l.Name)
		case st.out == st.in:
			if !dw1 || reads(i, st.in, true) {
				t.Fatalf("%s: %s writes over an input it may not", name, l.Name)
			}
		case dw1 && st.res < 0 && !reads(i, st.in, false):
			t.Fatalf("%s: %s's input dies at it, but it does not write over it", name, l.Name)
		case st.out == st.res:
		case def[st.out] <= n:
			t.Fatalf("%s: span %d written twice", name, st.out)
		default:
			def[st.out], end[st.out] = i, i
		}
	}
	if folded != adds {
		t.Fatalf("%s: %d of %d adds folded", name, folded, adds)
	}
	end[p.steps[n-1].out] = n
	for i, sp := range p.spans {
		if sp.def != def[i] || sp.end != end[i] {
			t.Fatalf("%s: span %d lives [%d, %d] in the plan, [%d, %d] by its steps", name, i, sp.def, sp.end, def[i], end[i])
		}
	}
	peak := 0
	for at := -1; at <= n; at++ {
		live := 0
		for i, sp := range p.spans {
			if def[i] <= at && at <= end[i] {
				live += sp.shape.Elems()
			}
		}
		peak = max(peak, live)
	}
	if p.slab != peak {
		t.Errorf("%s: slab %d, live-set bound %d", name, p.slab, peak)
	}
	for i, a := range p.spans {
		if a.off < 0 || a.off+a.shape.Elems() > p.slab {
			t.Fatalf("%s: span %d at [%d, %d) outside the %d-byte slab", name, i, a.off, a.off+a.shape.Elems(), p.slab)
		}
		for j, b := range p.spans[:i] {
			if def[i] <= end[j] && def[j] <= end[i] && a.off < b.off+b.shape.Elems() && b.off < a.off+a.shape.Elems() {
				t.Fatalf("%s: spans %d and %d live together and share bytes", name, j, i)
			}
		}
	}
}

// TestPrepareRejectsForeignPlan: a SubNet of another SuperNet is
// refused before any panel is viewed — a resnet50 SubNet on a
// mobilenetv3 engine at stem.conv's dims, a mobilenetv3 SubNet on a
// resnet50 engine at stem.dw's name — and three tries leave the
// engine's images, their bytes and their views as they were.
func TestPrepareRejectsForeignPlan(t *testing.T) {
	mbv3, resnet := supernet.NewOFAMobileNetV3(), supernet.NewOFAResNet50()
	mf, err := mbv3.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	rf, err := resnet.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	views := func(e *Engine) int {
		n := 0
		for _, im := range e.images {
			n += len(im.views)
		}
		return n
	}
	for _, tc := range []struct {
		net          *supernet.SuperNet
		own, foreign *supernet.SubNet
		layer        string
	}{
		{mbv3, mf[0], rf[0], "stem.conv"},
		{resnet, rf[0], mf[0], "stem.dw"},
	} {
		e := NewEngine(NewWeightStore(tc.net, 1))
		if _, err := e.prepare(tc.own); err != nil {
			t.Fatal(err)
		}
		n, b, v := len(e.images), residentBytes(e), views(e)
		for range 3 {
			if _, err := e.prepare(tc.foreign); err == nil || !strings.HasPrefix(err.Error(), "infer: "+tc.layer+": ") {
				t.Fatalf("%s on %s: err = %v, want one naming %s", tc.foreign.Name, tc.net.Name, err, tc.layer)
			}
		}
		if n2, b2, v2 := len(e.images), residentBytes(e), views(e); n2 != n || b2 != b || v2 != v {
			t.Errorf("%s on %s: %d images, %d bytes, %d views after the rejected plans; want %d, %d, %d",
				tc.foreign.Name, tc.net.Name, n2, b2, v2, n, b, v)
		}
	}
}

// residentBytes is the engine's weight footprint: the bytes of its
// (layer, kernel) images.
func residentBytes(e *Engine) int {
	n := 0
	for _, im := range e.images {
		n += len(im.data)
	}
	return n
}

// privateBytes is what the plans' panels would hold as private copies.
func privateBytes(ps ...*prepared) int {
	n := 0
	for _, p := range ps {
		for _, st := range p.steps {
			n += st.w.Shape.Elems()
		}
	}
	return n
}

// checkViews fails unless every weight panel of p is the top-left
// corner of its (layer, kernel) image as the image stands now: same
// backing array, rows one image row apart.
func checkViews(t *testing.T, e *Engine, name string, p *prepared) {
	t.Helper()
	for _, st := range p.steps {
		if st.l.WeightBytes() == 0 {
			continue
		}
		im := e.images[imageKey{st.l.BlockID, st.l.R}]
		if im == nil || &st.w.Data[0] != &im.data[0] || st.ld != im.c*st.l.R*st.l.R {
			t.Fatalf("%s: %s does not view its layer's current image", name, st.l.Name)
		}
	}
}

// TestSharedImagesMatchReference runs SubNets whose panels are strided
// views of images another SubNet grew — S, then L, then S again on one
// engine; L, S and S at batch 4 on another — and pins each against
// ForwardReference bit for bit. L's reference takes seconds, so -short
// and -race runs check only the S calls.
func TestSharedImagesMatchReference(t *testing.T) {
	s := supernet.NewOFAMobileNetV3()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	S, L := fr[0], fr[len(fr)-1]
	ref := map[*supernet.SubNet]*tensor.Int8{S: reference(t, s, S)}
	if !raceEnabled && !testing.Short() {
		ref[L] = reference(t, s, L)
	}
	type call struct {
		sn    *supernet.SubNet
		batch int
	}
	for _, order := range [][]call{{{S, 1}, {L, 1}, {S, 1}}, {{L, 1}, {S, 1}, {S, 4}}} {
		e := NewEngine(NewWeightStore(s, 1))
		e.SetWorkers(2)
		var out tensor.Int8
		for i, c := range order {
			if err := e.ForwardBatchInto(c.sn, referenceInput, c.batch, &out); err != nil {
				t.Fatal(err)
			}
			want := ref[c.sn]
			if want == nil {
				continue
			}
			for b := 0; b < c.batch; b++ {
				if !slices.Equal(out.Data[b*len(want.Data):][:len(want.Data)], want.Data) {
					t.Fatalf("call %d (%s, batch %d): slot %d differs from ForwardReference", i, c.sn.Name, c.batch, b)
				}
			}
		}
		e.Close()
	}
}

// TestSharedImagesResident pins the engine's weight footprint: after
// mobilenetv3's smallest and largest SubNets, both plans' panels view
// one set of 76 images holding 5,127,408 bytes, where private copies
// held 8,229,360.
func TestSharedImagesResident(t *testing.T) {
	s := supernet.NewOFAMobileNetV3()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(NewWeightStore(s, 1))
	pS, err := e.prepare(fr[0])
	if err != nil {
		t.Fatal(err)
	}
	pL, err := e.prepare(fr[len(fr)-1])
	if err != nil {
		t.Fatal(err)
	}
	checkViews(t, e, "S", pS)
	checkViews(t, e, "L", pL)
	if n, got, priv := len(e.images), residentBytes(e), privateBytes(pS, pL); n != 76 || got != 5127408 || priv != 8229360 {
		t.Fatalf("%d images hold %d bytes for %d private; want 76 images, 5127408 bytes for 8229360", n, got, priv)
	}
}

// TestSharedImagesPairs prepares every ordered pair of distinct frontier
// SubNets on a fresh engine: the second plan's growth re-points the
// first's panels, and the images never hold more than the two private
// copies would. resnet50's pairs take seconds, so -short and -race runs
// keep mobilenetv3's.
func TestSharedImagesPairs(t *testing.T) {
	for _, s := range []*supernet.SuperNet{supernet.NewOFAMobileNetV3(), supernet.NewOFAResNet50()} {
		if s.Name != "ofa-mobilenetv3" && (raceEnabled || testing.Short()) {
			continue
		}
		fr, err := s.Frontier()
		if err != nil {
			t.Fatal(err)
		}
		ws := NewWeightStore(s, 1)
		for i, a := range fr {
			for j, b := range fr {
				if i == j {
					continue
				}
				e := NewEngine(ws)
				pa, err := e.prepare(a)
				if err != nil {
					t.Fatal(err)
				}
				pb, err := e.prepare(b)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s frontier %d then %d", s.Name, i, j)
				checkViews(t, e, name, pa)
				checkViews(t, e, name, pb)
				if got, priv := residentBytes(e), privateBytes(pa, pb); got > priv {
					t.Fatalf("%s: images hold %d bytes, private copies %d", name, got, priv)
				}
			}
		}
	}
}

// BenchmarkForward measures the arena/blocked forward (single image,
// sequential) — the number the ≥5× acceptance criterion compares
// against BenchmarkForwardReference. The largest SubNet runs first, so
// the timed smallest one reads its panels as strided views of the
// larger images, and the arena stands at the high-water mark of
// forward_switch's mobilenetv3 engine (the largest SubNet's one-image
// plan; the smallest at batch 4, run next, does not move it). It
// reports the arena's activation slab and accumulator as arena_MB and
// the images' footprint as weights_MB.
func BenchmarkForward(b *testing.B) {
	s := supernet.NewOFAMobileNetV3()
	fr, err := s.Frontier()
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(NewWeightStore(s, 1))
	defer e.Close()
	e.SetWorkers(1)
	in := tensor.RandomInt8(tensor.Shape{N: 1, C: 3, H: 224, W: 224}, 99)
	var out tensor.Int8
	for _, w := range []struct {
		sn    *supernet.SubNet
		batch int
	}{{fr[len(fr)-1], 1}, {fr[0], 4}, {fr[0], 1}} {
		if err := e.ForwardBatchInto(w.sn, in, w.batch, &out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.ForwardBatchInto(fr[0], in, 1, &out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(arenaBytes(&e.a))/(1<<20), "arena_MB")
	b.ReportMetric(float64(residentBytes(e))/(1<<20), "weights_MB")
}

// BenchmarkForwardReference measures the pre-blocking pipeline the
// fast path replaced.
func BenchmarkForwardReference(b *testing.B) {
	s := supernet.NewOFAMobileNetV3()
	fr, err := s.Frontier()
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(NewWeightStore(s, 1))
	defer e.Close()
	in := tensor.RandomInt8(tensor.Shape{N: 1, C: 3, H: 224, W: 224}, 99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ForwardReference(fr[0], in); err != nil {
			b.Fatal(err)
		}
	}
}
