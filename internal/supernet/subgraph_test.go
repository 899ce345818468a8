package supernet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomGraph builds a random SubGraph over s from a seed.
func randomGraph(s *SuperNet, seed int64, density float64) *SubGraph {
	rng := rand.New(rand.NewSource(seed))
	g := NewSubGraph(s, "rand")
	for id := 0; id < s.NumCells(); id++ {
		if rng.Float64() < density {
			g.Add(id)
		}
	}
	return g
}

func TestSubGraphAddContains(t *testing.T) {
	s := NewOFAMobileNetV3()
	g := NewSubGraph(s, "t")
	if g.Count() != 0 {
		t.Fatal("new subgraph not empty")
	}
	g.Add(0)
	g.Add(100)
	if !g.Contains(0) || !g.Contains(100) || g.Contains(1) {
		t.Fatal("contains wrong after add")
	}
	if g.Count() != 2 {
		t.Fatalf("count = %d, want 2", g.Count())
	}
}

func TestSubGraphCloneIndependent(t *testing.T) {
	s := NewOFAMobileNetV3()
	g := randomGraph(s, 1, 0.5)
	c := g.Clone()
	if c.Count() != g.Count() {
		t.Fatal("clone count differs")
	}
	// Mutating the clone must not affect the original.
	id := 0
	for g.Contains(id) {
		id++
	}
	c.Add(id)
	if g.Contains(id) || g.Count() != c.Count()-1 {
		t.Fatal("original mutated by clone operations")
	}
}

func TestSubGraphSetAlgebraProperties(t *testing.T) {
	s := NewOFAMobileNetV3()
	f := func(seedA, seedB int64) bool {
		a := randomGraph(s, seedA, 0.4)
		b := randomGraph(s, seedB, 0.4)
		inter, err := a.Intersect(b)
		if err != nil {
			return false
		}
		uni := NewSubGraph(s, "a∪b")
		for id := range s.Cells {
			if a.Contains(id) || b.Contains(id) {
				uni.Add(id)
			}
		}
		// |A| + |B| == |A∪B| + |A∩B| (inclusion-exclusion on bytes too).
		if a.Count()+b.Count() != uni.Count()+inter.Count() {
			return false
		}
		if a.Bytes()+b.Bytes() != uni.Bytes()+inter.Bytes() {
			return false
		}
		// Intersection bytes shortcut agrees with materialized intersection.
		if a.IntersectBytes(b) != inter.Bytes() {
			return false
		}
		// A∩B ⊆ A ⊆ A∪B.
		for _, id := range inter.Cells() {
			if !a.Contains(id) {
				return false
			}
		}
		for _, id := range a.Cells() {
			if !uni.Contains(id) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSubGraphCrossSuperNetRejected(t *testing.T) {
	a := NewSubGraph(NewOFAMobileNetV3(), "a")
	b := NewSubGraph(NewOFAMobileNetV3(), "b") // different instance
	if _, err := a.Intersect(b); err == nil {
		t.Fatal("intersect across supernets must fail")
	}
}

func TestLayerBytesSumsToGraphBytes(t *testing.T) {
	s := NewOFAResNet50()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	g := fr[2].Graph
	var sum int64
	for li := 0; li < s.NumLayers(); li++ {
		sum += g.LayerHitBytes(li, g) // a graph hits all of itself
	}
	if sum != g.Bytes() {
		t.Fatalf("per-layer bytes sum %d != total %d", sum, g.Bytes())
	}
}

func TestLayerHitBytes(t *testing.T) {
	s := NewOFAResNet50()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	a, f := fr[0], fr[5]
	// A ⊆ F, so caching F means every A layer fully hits.
	for li := 0; li < s.NumLayers(); li++ {
		hit := a.Graph.LayerHitBytes(li, f.Graph)
		if own := a.Graph.LayerHitBytes(li, a.Graph); hit != own {
			t.Fatalf("layer %d: hit %d != layer bytes %d under superset cache",
				li, hit, own)
		}
	}
	// Empty cache hits nothing.
	empty := NewSubGraph(s, "empty")
	for li := 0; li < s.NumLayers(); li++ {
		if a.Graph.LayerHitBytes(li, empty) != 0 {
			t.Fatalf("layer %d: nonzero hit under empty cache", li)
		}
	}
}

// TestCoveredExtentMatchesDims checks that every dimension a SubNet takes
// is one of its layer's cut points, on the frontier and on random specs:
// a dimension between cuts would cover a smaller prefix than it uses.
func TestCoveredExtentMatchesDims(t *testing.T) {
	for _, s := range []*SuperNet{NewOFAResNet50(), NewOFAMobileNetV3()} {
		fr, err := s.Frontier()
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 50; seed++ {
			sn, err := s.Instantiate(s.RandomSpec(seed))
			if err != nil {
				t.Fatal(err)
			}
			fr = append(fr, sn)
		}
		for _, sn := range fr {
			for li, d := range sn.Dims {
				got := sn.Graph.CoveredExtent(li)
				if got != d {
					t.Errorf("%s/%s layer %d (%s): covered extent %+v != dims %+v",
						s.Name, sn.Name, li, s.Layers[li].Name, got, d)
				}
			}
		}
	}
}

func TestVectorEncoding(t *testing.T) {
	s := NewOFAResNet50()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	sn := fr[0]
	v1 := sn.Vector()
	v2 := sn.Graph.Vector()
	if len(v1) != len(v2) || len(v1) != 2*s.NumLayers() {
		t.Fatalf("vector lengths %d, %d, want %d", len(v1), len(v2), 2*s.NumLayers())
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("subnet vector[%d]=%g != graph vector[%d]=%g", i, v1[i], i, v2[i])
		}
	}
}

func TestDistance(t *testing.T) {
	if d := Distance([]float64{0, 0}, []float64{3, 4}); math.Abs(d-5) > 1e-12 {
		t.Errorf("distance = %g, want 5", d)
	}
	if d := Distance([]float64{1, 2}, []float64{1, 2}); d != 0 {
		t.Errorf("self distance = %g, want 0", d)
	}
	// Ragged lengths: extra dims count fully.
	if d := Distance([]float64{3}, []float64{3, 4}); math.Abs(d-4) > 1e-12 {
		t.Errorf("ragged distance = %g, want 4", d)
	}
}

func TestDistanceSymmetryQuick(t *testing.T) {
	f := func(aRaw, bRaw [8]int16) bool {
		// Encoding vectors hold channel counts, so realistic magnitudes
		// are small; int16 inputs keep the arithmetic exact.
		a := make([]float64, 8)
		b := make([]float64, 8)
		for i := range aRaw {
			a[i] = float64(aRaw[i])
			b[i] = float64(bRaw[i])
		}
		d1 := Distance(a, b)
		d2 := Distance(b, a)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapBounds(t *testing.T) {
	s := NewOFAMobileNetV3()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	a, g := fr[0], fr[6]
	// Overlap of a subnet with a superset cache is 1.
	if ov := Overlap(a.Graph, g.Graph); math.Abs(ov-1) > 1e-9 {
		t.Errorf("overlap with superset = %g, want 1", ov)
	}
	// Overlap with empty cache is 0.
	empty := NewSubGraph(s, "empty")
	if ov := Overlap(a.Graph, empty); ov != 0 {
		t.Errorf("overlap with empty = %g, want 0", ov)
	}
	// Overlap is within [0, 1] for arbitrary pairs.
	for i := 0; i < len(fr); i++ {
		for j := 0; j < len(fr); j++ {
			ov := Overlap(fr[i].Graph, fr[j].Graph)
			if ov < 0 || ov > 1+1e-9 {
				t.Errorf("overlap(%s,%s) = %g outside [0,1]", fr[i].Name, fr[j].Name, ov)
			}
		}
	}
}

func TestTruncateToBudget(t *testing.T) {
	s := NewOFAResNet50()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	g := fr[3].Graph
	priority := make([]int, s.NumCells())
	for i := range priority {
		priority[i] = i
	}
	const budget = 1 << 20
	tr := g.TruncateToBudget(budget, priority)
	if tr.Bytes() > budget {
		t.Fatalf("truncated bytes %d exceed budget %d", tr.Bytes(), budget)
	}
	if tr.Count() == 0 {
		t.Fatal("truncation produced empty graph for a 1 MB budget")
	}
	// Every kept cell must come from g.
	for _, id := range tr.Cells() {
		if !g.Contains(id) {
			t.Fatalf("truncation invented cell %d", id)
		}
	}
	// Zero budget keeps nothing.
	if z := g.TruncateToBudget(0, priority); z.Count() != 0 {
		t.Fatal("zero budget must keep nothing")
	}
}
