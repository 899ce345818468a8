package supernet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

func TestRound8(t *testing.T) {
	tests := []struct {
		in   float64
		want int
	}{
		{1, 8}, {8, 8}, {11.9, 8}, {12, 16}, {64, 64}, {166.4, 168}, {0.2, 8},
	}
	for _, tc := range tests {
		if got := round8(tc.in); got != tc.want {
			t.Errorf("round8(%g) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestNormalizeCuts(t *testing.T) {
	got := normalizeCuts([]int{32, 8, 32, 0, -4, 99}, 64)
	want := []int{8, 32, 64}
	if len(got) != len(want) {
		t.Fatalf("cuts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cuts = %v, want %v", got, want)
		}
	}
}

func TestResNetSuperNetStructure(t *testing.T) {
	s := NewOFAResNet50()
	// stem + 4 stages x 4 blocks x 3 convs + 4 downsamples + fc.
	wantLayers := 1 + 4*4*3 + 4 + 1
	if s.NumLayers() != wantLayers {
		t.Errorf("NumLayers = %d, want %d", s.NumLayers(), wantLayers)
	}
	if s.NumCells() == 0 {
		t.Fatal("no cells built")
	}
	// Every cell must have positive bytes and valid bounds.
	for id, c := range s.Cells {
		if c.Bytes <= 0 {
			t.Fatalf("cell %d has bytes %d", id, c.Bytes)
		}
		if c.KLo >= c.KHi || c.CLo >= c.CHi || c.ALo >= c.AHi {
			t.Fatalf("cell %d has empty box %+v", id, c)
		}
	}
	// Cell bytes per layer must sum to the layer's max weight tensor.
	for li := range s.Layers {
		l := &s.Layers[li]
		var sum int64
		for _, id := range s.LayerCells(li) {
			sum += s.Cells[id].Bytes
		}
		want := int64(l.KMax) * int64(l.CMax) * int64(l.RMax) * int64(l.SMax)
		if l.Kind.String() == "dwconv" {
			want = int64(l.KMax) * int64(l.RMax) * int64(l.SMax)
		}
		if sum != want {
			t.Errorf("layer %s: cells sum %d, full tensor %d", l.Name, sum, want)
		}
	}
}

func TestMobileNetSuperNetStructure(t *testing.T) {
	s := NewOFAMobileNetV3()
	// 3 stem + 5 stages x 4 blocks x 3 layers + 3 head/fc.
	wantLayers := 3 + 5*4*3 + 3
	if s.NumLayers() != wantLayers {
		t.Errorf("NumLayers = %d, want %d", s.NumLayers(), wantLayers)
	}
	// Depthwise layers must have CMax == 1 (per-group channel extent).
	for _, l := range s.Layers {
		if l.Kind.String() == "dwconv" && l.CMax != 1 {
			t.Errorf("dw layer %s has CMax %d, want 1", l.Name, l.CMax)
		}
	}
}

func TestInstantiateMinMax(t *testing.T) {
	for _, s := range []*SuperNet{NewOFAResNet50(), NewOFAMobileNetV3()} {
		minSpec := s.UniformSpec(s.MinDepth, 0, 0, 0)
		maxSpec := s.UniformSpec(4, len(s.ExpandChoices)-1, len(s.KernelChoices)-1, len(s.WidthChoices)-1)
		if len(s.WidthChoices) == 0 {
			maxSpec.WidthIdx = 0
		}
		mn, err := s.Instantiate(minSpec)
		if err != nil {
			t.Fatalf("%s min: %v", s.Name, err)
		}
		mx, err := s.Instantiate(maxSpec)
		if err != nil {
			t.Fatalf("%s max: %v", s.Name, err)
		}
		if mn.WeightBytes() >= mx.WeightBytes() {
			t.Errorf("%s: min bytes %d !< max bytes %d", s.Name, mn.WeightBytes(), mx.WeightBytes())
		}
		if mn.FLOPs() >= mx.FLOPs() {
			t.Errorf("%s: min FLOPs %d !< max FLOPs %d", s.Name, mn.FLOPs(), mx.FLOPs())
		}
		// Weight sharing: the min SubNet must be contained in the max.
		inter, err := mn.Graph.Intersect(mx.Graph)
		if err != nil {
			t.Fatal(err)
		}
		if inter.Bytes() != mn.WeightBytes() {
			t.Errorf("%s: min ∩ max = %d bytes, want min itself %d (containment)",
				s.Name, inter.Bytes(), mn.WeightBytes())
		}
		// Max SubNet covers every cell.
		if mx.Graph.Count() != s.NumCells() {
			t.Errorf("%s: max subnet covers %d/%d cells", s.Name, mx.Graph.Count(), s.NumCells())
		}
		var total int64
		for _, c := range s.Cells {
			total += c.Bytes
		}
		if mx.WeightBytes() != total {
			t.Errorf("%s: max subnet bytes %d != supernet total %d", s.Name, mx.WeightBytes(), total)
		}
	}
}

func TestGraphBytesMatchModelWeights(t *testing.T) {
	// The SubGraph byte accounting must agree with the nn.Model's own
	// weight accounting for every frontier SubNet — two independent
	// derivations of the same quantity.
	for _, s := range []*SuperNet{NewOFAResNet50(), NewOFAMobileNetV3()} {
		fr, err := s.Frontier()
		if err != nil {
			t.Fatal(err)
		}
		for _, sn := range fr {
			if got, want := sn.Graph.Bytes(), sn.Model.TotalWeightBytes(); got != want {
				t.Errorf("%s/%s: graph bytes %d != model weight bytes %d", s.Name, sn.Name, got, want)
			}
		}
	}
}

func TestFrontierCalibration(t *testing.T) {
	rn := NewOFAResNet50()
	fr, err := rn.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	if len(fr) != 6 {
		t.Fatalf("ResNet50 frontier size %d, want 6", len(fr))
	}
	const mb = 1 << 20
	minB := float64(fr[0].WeightBytes()) / mb
	maxB := float64(fr[len(fr)-1].WeightBytes()) / mb
	// Paper: [7.58, 27.47] MB. Allow generous tolerance: the shape (≈3-4x
	// spread, single-digit-MB min) is what matters.
	if minB < 4 || minB > 12 {
		t.Errorf("ResNet50 min SubNet %.2f MB outside [4, 12] (paper 7.58)", minB)
	}
	if maxB < 18 || maxB > 36 {
		t.Errorf("ResNet50 max SubNet %.2f MB outside [18, 36] (paper 27.47)", maxB)
	}
	shared, err := SharedGraph(fr)
	if err != nil {
		t.Fatal(err)
	}
	sharedMB := float64(shared.Bytes()) / mb
	if sharedMB < 0.5*minB || sharedMB > minB {
		t.Errorf("ResNet50 shared %.2f MB should be just below min %.2f MB (paper 7.55 vs 7.58)", sharedMB, minB)
	}

	mb3 := NewOFAMobileNetV3()
	fr3, err := mb3.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	if len(fr3) != 7 {
		t.Fatalf("MobV3 frontier size %d, want 7", len(fr3))
	}
	minB3 := float64(fr3[0].WeightBytes()) / mb
	maxB3 := float64(fr3[len(fr3)-1].WeightBytes()) / mb
	if minB3 < 1.5 || minB3 > 5 {
		t.Errorf("MobV3 min SubNet %.2f MB outside [1.5, 5] (paper 2.97)", minB3)
	}
	if maxB3 < 3 || maxB3 > 8 {
		t.Errorf("MobV3 max SubNet %.2f MB outside [3, 8] (paper 4.74)", maxB3)
	}
	shared3, err := SharedGraph(fr3)
	if err != nil {
		t.Fatal(err)
	}
	shared3MB := float64(shared3.Bytes()) / mb
	if shared3MB < 0.5*minB3 || shared3MB > minB3 {
		t.Errorf("MobV3 shared %.2f MB should be just below min %.2f MB (paper 2.90 vs 2.97)", shared3MB, minB3)
	}
}

func TestFrontierMonotone(t *testing.T) {
	for _, s := range []*SuperNet{NewOFAResNet50(), NewOFAMobileNetV3()} {
		fr, err := s.Frontier()
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(fr); i++ {
			if fr[i].FLOPs() <= fr[i-1].FLOPs() {
				t.Errorf("%s: frontier %s FLOPs %d not > %s FLOPs %d",
					s.Name, fr[i].Name, fr[i].FLOPs(), fr[i-1].Name, fr[i-1].FLOPs())
			}
			if fr[i].Accuracy <= fr[i-1].Accuracy {
				t.Errorf("%s: frontier %s accuracy %.2f not > %s accuracy %.2f",
					s.Name, fr[i].Name, fr[i].Accuracy, fr[i-1].Name, fr[i-1].Accuracy)
			}
		}
		lo, hi := fr[0].Accuracy, fr[len(fr)-1].Accuracy
		if lo < 74 || hi > 81 {
			t.Errorf("%s: accuracy range [%.2f, %.2f] outside paper band [74, 81]", s.Name, lo, hi)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	s := NewOFAResNet50()
	bad := []SubNetSpec{
		{},
		{Depth: []int{2, 2, 2}, ExpandIdx: []int{0, 0, 0}},
		{Depth: []int{1, 2, 2, 2}, ExpandIdx: []int{0, 0, 0, 0}},
		{Depth: []int{2, 2, 2, 5}, ExpandIdx: []int{0, 0, 0, 0}},
		{Depth: []int{2, 2, 2, 2}, ExpandIdx: []int{0, 0, 0, 9}},
		{Depth: []int{2, 2, 2, 2}, ExpandIdx: []int{0, 0, 0, 0}, WidthIdx: 5},
	}
	for i, sp := range bad {
		if err := s.Validate(sp); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	m := NewOFAMobileNetV3()
	spNoKernel := SubNetSpec{Depth: []int{2, 2, 2, 2, 2}, ExpandIdx: []int{0, 0, 0, 0, 0}}
	if err := m.Validate(spNoKernel); err == nil {
		t.Error("MobV3 spec without kernel indices accepted")
	}
}

func TestEnumerateUniform(t *testing.T) {
	s := NewOFAResNet50()
	specs := s.EnumerateUniform()
	// depths {2,3,4} x expands {3} x widths {3} = 27.
	if len(specs) != 27 {
		t.Errorf("ResNet50 uniform specs = %d, want 27", len(specs))
	}
	for _, sp := range specs {
		if err := s.Validate(sp); err != nil {
			t.Errorf("enumerated spec invalid: %v", err)
		}
	}
	m := NewOFAMobileNetV3()
	if got := len(m.EnumerateUniform()); got != 27 {
		t.Errorf("MobV3 uniform specs = %d, want 27 (3 depths x 3 expands x 3 kernels)", got)
	}
}

func TestRandomSpecValid(t *testing.T) {
	for _, s := range []*SuperNet{NewOFAResNet50(), NewOFAMobileNetV3()} {
		for seed := int64(0); seed < 50; seed++ {
			sp := s.RandomSpec(seed)
			if err := s.Validate(sp); err != nil {
				t.Fatalf("%s seed %d: %v", s.Name, seed, err)
			}
		}
		// Determinism.
		a, b := s.RandomSpec(7), s.RandomSpec(7)
		if s.Dominates(a, b) != true || s.Dominates(b, a) != true {
			t.Fatalf("%s: same seed specs differ", s.Name)
		}
	}
}

// TestDominanceImpliesContainment is the central weight-sharing property:
// whenever spec A dominates spec B in every elastic dimension, A's SubNet
// must contain B's weight cells entirely (nested prefixes).
func TestDominanceImpliesContainment(t *testing.T) {
	for _, s := range []*SuperNet{NewOFAResNet50(), NewOFAMobileNetV3()} {
		checked := 0
		for seed := int64(0); seed < 60 && checked < 8; seed++ {
			a := s.RandomSpec(seed)
			b := s.RandomSpec(seed + 1000)
			if !s.Dominates(a, b) {
				continue
			}
			snA, err := s.Instantiate(a)
			if err != nil {
				t.Fatal(err)
			}
			snB, err := s.Instantiate(b)
			if err != nil {
				t.Fatal(err)
			}
			inter, err := snA.Graph.Intersect(snB.Graph)
			if err != nil {
				t.Fatal(err)
			}
			if inter.Bytes() != snB.WeightBytes() {
				t.Errorf("%s: dominated subnet not contained: ∩=%d B, subnet=%d B",
					s.Name, inter.Bytes(), snB.WeightBytes())
			}
			checked++
		}
		// Dominating pairs exist but can be rare in 60 draws; synthesize
		// one deterministically if none matched.
		if checked == 0 {
			a := s.UniformSpec(4, len(s.ExpandChoices)-1, len(s.KernelChoices)-1, len(s.WidthChoices)-1)
			if len(s.WidthChoices) == 0 {
				a.WidthIdx = 0
			}
			b := s.RandomSpec(5)
			if !s.Dominates(a, b) {
				t.Fatalf("%s: max spec fails to dominate a random spec", s.Name)
			}
			snA, err := s.Instantiate(a)
			if err != nil {
				t.Fatal(err)
			}
			snB, err := s.Instantiate(b)
			if err != nil {
				t.Fatal(err)
			}
			inter, err := snA.Graph.Intersect(snB.Graph)
			if err != nil {
				t.Fatal(err)
			}
			if inter.Bytes() != snB.WeightBytes() {
				t.Errorf("%s: dominated subnet not contained under max spec", s.Name)
			}
		}
	}
}

// TestRandomSpecAccuracyWithinBand: every random SubNet's estimated
// accuracy must stay inside the calibration band.
func TestRandomSpecAccuracyWithinBand(t *testing.T) {
	for _, s := range []*SuperNet{NewOFAResNet50(), NewOFAMobileNetV3()} {
		for seed := int64(0); seed < 20; seed++ {
			sn, err := s.Instantiate(s.RandomSpec(seed))
			if err != nil {
				t.Fatal(err)
			}
			if sn.Accuracy < 74 || sn.Accuracy > 81 {
				t.Errorf("%s seed %d: accuracy %.2f outside [74, 81]", s.Name, seed, sn.Accuracy)
			}
		}
	}
}

// structureDigest hashes everything a SuperNet family's construction
// decides: each elastic layer's extents and cut points, the cell table,
// and the SubNet (name, model layers, dims, covered cells, accuracy) at
// every uniform spec, at RandomSpec(0..199) and on the frontier.
func structureDigest(t *testing.T, s *SuperNet) string {
	t.Helper()
	h := sha256.New()
	for _, l := range s.Layers {
		fmt.Fprintf(h, "%s|%v|%d %d %d %d|%v %v %v\n",
			l.Name, l.Kind, l.KMax, l.CMax, l.RMax, l.SMax, l.KCuts, l.CCuts, l.ACuts)
	}
	for _, c := range s.Cells {
		fmt.Fprintf(h, "%+v\n", c)
	}
	specs := s.EnumerateUniform()
	for seed := int64(0); seed < 200; seed++ {
		specs = append(specs, s.RandomSpec(seed))
	}
	var subnets []*SubNet
	for _, sp := range specs {
		sn, err := s.Instantiate(sp)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		subnets = append(subnets, sn)
	}
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	for _, sn := range append(subnets, fr...) {
		fmt.Fprintf(h, "%s\n", sn.Name)
		for _, l := range sn.Model.Layers {
			fmt.Fprintf(h, "%+v\n", l)
		}
		fmt.Fprintf(h, "%v\n%v\n%v\n", sn.Dims, sn.Graph.Cells(), sn.Accuracy)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSuperNetStructurePinned pins each family's construction, so a
// change to how the SuperNet is derived from its SubNets cannot move a
// layer, a cut point, a cell or a SubNet unnoticed.
func TestSuperNetStructurePinned(t *testing.T) {
	for _, tc := range []struct {
		s    *SuperNet
		want string
	}{
		{NewOFAResNet50(), "7e76e103e2c4eac37bc4f28dfca3c1fb5b1b9fdeef39559b14a4a3e0ab75286b"},
		{NewOFAMobileNetV3(), "3b81bc106698d017c89453c12d21d2f748e307ed0e22e86a8e960bbc3d4bd6b7"},
	} {
		if got := structureDigest(t, tc.s); got != tc.want {
			t.Errorf("%s structure digest = %s, want %s", tc.s.Name, got, tc.want)
		}
	}
}

// BenchmarkSuperNetBuild measures SuperNet construction: both families
// and their frontiers, once per op, as each process does at setup.
func BenchmarkSuperNetBuild(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		for _, s := range []*SuperNet{NewOFAResNet50(), NewOFAMobileNetV3()} {
			if _, err := s.Frontier(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Dominates reports whether spec a selects at least as much of every
// elastic dimension as b — in which case a's SubNet contains b's
// (nested-prefix weight sharing).
func (s *SuperNet) Dominates(a, b SubNetSpec) bool {
	if len(a.Depth) != len(b.Depth) {
		return false
	}
	for i := range a.Depth {
		if a.Depth[i] < b.Depth[i] || a.ExpandIdx[i] < b.ExpandIdx[i] {
			return false
		}
	}
	if len(s.KernelChoices) > 0 {
		for i := range a.KernelIdx {
			if a.KernelIdx[i] < b.KernelIdx[i] {
				return false
			}
		}
	}
	if len(s.WidthChoices) > 0 && a.WidthIdx < b.WidthIdx {
		return false
	}
	return true
}
