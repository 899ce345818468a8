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
// so -short and -race runs keep only the smallest SubNet.
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

// TestForwardBatchSemantics pins ForwardBatchInto: a single image tiled
// across the batch yields the single-image logits in every batch slot,
// and a true N=n input yields each image's own logits.
func TestForwardBatchSemantics(t *testing.T) {
	e, sn := mobv3Fixture(t)
	e.SetWorkers(1)
	one := tensor.RandomInt8(tensor.Shape{N: 1, C: 3, H: 224, W: 224}, 23)
	single, err := e.Forward(sn, one)
	if err != nil {
		t.Fatal(err)
	}
	classes := single.Shape.C
	var batched tensor.Int8
	if err := e.ForwardBatchInto(sn, one, 3, &batched); err != nil {
		t.Fatal(err)
	}
	if batched.Shape != (tensor.Shape{N: 3, C: classes, H: 1, W: 1}) {
		t.Fatalf("batched logits shape %v", batched.Shape)
	}
	for b := 0; b < 3; b++ {
		for c := 0; c < classes; c++ {
			if batched.Data[b*classes+c] != single.Data[c] {
				t.Fatalf("batch slot %d class %d: %d != single %d",
					b, c, batched.Data[b*classes+c], single.Data[c])
			}
		}
	}

	// Distinct images through one batch == their individual forwards.
	two := tensor.NewInt8(tensor.Shape{N: 2, C: 3, H: 224, W: 224})
	imgA := tensor.RandomInt8(tensor.Shape{N: 1, C: 3, H: 224, W: 224}, 31)
	imgB := tensor.RandomInt8(tensor.Shape{N: 1, C: 3, H: 224, W: 224}, 32)
	img := 3 * 224 * 224
	copy(two.Data[:img], imgA.Data)
	copy(two.Data[img:], imgB.Data)
	var both tensor.Int8
	if err := e.ForwardBatchInto(sn, two, 2, &both); err != nil {
		t.Fatal(err)
	}
	outA, err := e.Forward(sn, imgA)
	if err != nil {
		t.Fatal(err)
	}
	outB, err := e.Forward(sn, imgB)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < classes; c++ {
		if both.Data[c] != outA.Data[c] || both.Data[classes+c] != outB.Data[c] {
			t.Fatalf("batched image logits diverge from individual forwards at class %d", c)
		}
	}

	// Incompatible batch/input combinations are rejected.
	if err := e.ForwardBatchInto(sn, two, 3, &both); err == nil {
		t.Fatal("N=2 input accepted for batch 3")
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
// smallest at batch 4 allocates nothing once each (SubNet, batch) has
// run once — switching re-uses the arena and the pack buffers at their
// high-water marks.
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
	n := 4 * cap(a.acc.Data)
	for i := range a.act {
		n += cap(a.act[i].Data)
	}
	return n
}

// TestEngineArenaFootprint pins the arena's shape: three activation
// buffers of batch·actMax bytes each, and an int32 accumulator no
// larger than the fully-connected and global-pool layers need, because
// convolutions requantize in their kernels' epilogue. It runs the
// mobilenetv3 S, L, S@4 switch on one engine and resnet50 on another.
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
	}{
		{mbv3, []run{{mf[0], 1}, {mf[len(mf)-1], 1}, {mf[0], 4}}},
		{resnet, []run{{rf[0], 1}}},
	} {
		e := NewEngine(NewWeightStore(tc.net, 1))
		e.SetWorkers(1)
		var out tensor.Int8
		var act, acc int
		for _, r := range tc.runs {
			if err := e.ForwardBatchInto(r.sn, in, r.batch, &out); err != nil {
				t.Fatal(err)
			}
			act = max(act, r.batch*e.prep[r.sn].actMax)
			for _, l := range r.sn.Model.Layers {
				switch {
				case l.Kind == nn.Linear:
					acc = max(acc, r.batch*l.K)
				case l.Kind == nn.Pool && l.OutH == 1 && l.OutW == 1:
					acc = max(acc, r.batch*l.C)
				}
			}
		}
		e.Close()
		for i := range e.a.act {
			if got := cap(e.a.act[i].Data); got != act {
				t.Errorf("%s: activation buffer %d holds %d bytes, want batch·actMax = %d", tc.net.Name, i, got, act)
			}
		}
		if got := cap(e.a.acc.Data); got > acc {
			t.Errorf("%s: accumulator holds %d int32, want at most batch·max(FC K, pooled C) = %d", tc.net.Name, got, acc)
		}
	}
}

// TestPrepareRejectsDetachedDownsample: three rotating buffers hold a
// block's input, the shortcut and the downsample's output only if the
// add consumes that output next, so prepare refuses a downsample that
// does not directly precede its add.
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
// larger images. It reports the warm arena's activation and
// accumulator footprint as arena_MB and the images' as weights_MB.
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
	for _, sn := range []*supernet.SubNet{fr[len(fr)-1], fr[0]} {
		if err := e.ForwardBatchInto(sn, in, 1, &out); err != nil {
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
