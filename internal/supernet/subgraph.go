package supernet

import (
	"fmt"
	"math"
	"math/bits"
)

// SubGraph is a subset of SuperNet weight cells. Any SubNet's weight set
// is a SubGraph; so is any intersection or truncation of SubNets. The
// Persistent Buffer caches exactly one SubGraph at a time.
//
// The representation is a bitset over the global cell table, which makes
// the cross-query set algebra (intersection for reuse) O(cells/64).
type SubGraph struct {
	super *SuperNet
	bits  []uint64
	name  string
}

// NewSubGraph returns an empty SubGraph over s.
func NewSubGraph(s *SuperNet, name string) *SubGraph {
	return &SubGraph{
		super: s,
		bits:  make([]uint64, (s.NumCells()+63)/64),
		name:  name,
	}
}

// Name returns the SubGraph's identifier.
func (g *SubGraph) Name() string { return g.name }

// SetName renames the SubGraph.
func (g *SubGraph) SetName(n string) { g.name = n }

// Super returns the parent SuperNet.
func (g *SubGraph) Super() *SuperNet { return g.super }

// Contains reports whether cell id is in the SubGraph.
func (g *SubGraph) Contains(id int) bool {
	return g.bits[id/64]&(1<<(uint(id)%64)) != 0
}

// Add inserts cell id.
func (g *SubGraph) Add(id int) {
	g.bits[id/64] |= 1 << (uint(id) % 64)
}

// Clone returns a deep copy.
func (g *SubGraph) Clone() *SubGraph {
	c := &SubGraph{super: g.super, bits: make([]uint64, len(g.bits)), name: g.name}
	copy(c.bits, g.bits)
	return c
}

// Count returns the number of cells in the SubGraph.
func (g *SubGraph) Count() int {
	n := 0
	for _, w := range g.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Bytes returns the total weight footprint of the SubGraph.
func (g *SubGraph) Bytes() int64 {
	var t int64
	for id := range g.super.Cells {
		if g.Contains(id) {
			t += g.super.Cells[id].Bytes
		}
	}
	return t
}

// Cells returns the sorted cell IDs in the SubGraph.
func (g *SubGraph) Cells() []int {
	out := make([]int, 0, g.Count())
	for id := range g.super.Cells {
		if g.Contains(id) {
			out = append(out, id)
		}
	}
	return out
}

// Intersect returns g ∩ o. Both must share a SuperNet.
func (g *SubGraph) Intersect(o *SubGraph) (*SubGraph, error) {
	if g.super != o.super {
		return nil, fmt.Errorf("supernet: intersect across different supernets (%s vs %s)", g.super.Name, o.super.Name)
	}
	r := NewSubGraph(g.super, g.name+"∩"+o.name)
	for i := range r.bits {
		r.bits[i] = g.bits[i] & o.bits[i]
	}
	return r, nil
}

// IntersectBytes returns the byte footprint of g ∩ o without allocating
// the intersection — the hot path of cache-hit accounting.
func (g *SubGraph) IntersectBytes(o *SubGraph) int64 {
	var t int64
	for id := range g.super.Cells {
		w := g.bits[id/64] & o.bits[id/64]
		if w&(1<<(uint(id)%64)) != 0 {
			t += g.super.Cells[id].Bytes
		}
	}
	return t
}

// LayerHitBytes returns the bytes of layer li's cells that are present in
// both g and cache — the weights the Persistent Buffer supplies for that
// layer.
func (g *SubGraph) LayerHitBytes(li int, cache *SubGraph) int64 {
	var t int64
	for _, id := range g.super.LayerCells(li) {
		if g.Contains(id) && cache.Contains(id) {
			t += g.super.Cells[id].Bytes
		}
	}
	return t
}

// CoveredExtent returns the (K, C, Area) prefix extents covered by g in
// layer li: the maximal KHi/CHi/AHi over g's cells of that layer, or zeros
// when the layer is absent.
func (g *SubGraph) CoveredExtent(li int) LayerDims {
	var d LayerDims
	for _, id := range g.super.LayerCells(li) {
		if !g.Contains(id) {
			continue
		}
		c := &g.super.Cells[id]
		if c.KHi > d.K {
			d.K = c.KHi
		}
		if c.CHi > d.C {
			d.C = c.CHi
		}
		if c.AHi > d.Area {
			d.Area = c.AHi
		}
	}
	return d
}

// Vector encodes the SubGraph as the paper's 2N-dimensional
// [K1, C1, K2, C2, ...] vector of per-layer covered extents (Fig. 6).
func (g *SubGraph) Vector() []float64 {
	v := make([]float64, 2*g.super.NumLayers())
	for li := 0; li < g.super.NumLayers(); li++ {
		d := g.CoveredExtent(li)
		v[2*li] = float64(d.K)
		v[2*li+1] = float64(d.C)
	}
	return v
}

// TruncateToBudget returns a copy of g reduced to at most budget bytes by
// keeping cells in the order given by priority (a permutation of cell IDs;
// IDs not in g are skipped). Cells are taken greedily while they fit,
// preserving prefix-connectivity when the priority enumerates prefixes
// first.
func (g *SubGraph) TruncateToBudget(budget int64, priority []int) *SubGraph {
	r := NewSubGraph(g.super, fmt.Sprintf("%s@%dB", g.name, budget))
	var used int64
	for _, id := range priority {
		if !g.Contains(id) {
			continue
		}
		b := g.super.Cells[id].Bytes
		if used+b > budget {
			continue
		}
		r.Add(id)
		used += b
	}
	return r
}

// Overlap returns the paper's cache-hit metric (Appendix A.4):
// ‖SN ∩ G‖₂ / ‖SN‖₂ over the vectorized encodings. It is computed
// without materializing the intersection or either vector — this sits
// on the serving hot path (every memoized-pass miss) — by accumulating
// the squared per-layer covered extents in the element order of the
// [K1, C1, K2, C2, ...] encoding, so the result is bit-identical to
// intersecting, vectorizing and taking the two L2 norms.
func Overlap(sn *SubGraph, cache *SubGraph) float64 {
	if sn.super != cache.super {
		return 0
	}
	var numS, denS float64
	for li := 0; li < sn.super.NumLayers(); li++ {
		var sk, sc, ik, ic int
		for _, id := range sn.super.LayerCells(li) {
			if !sn.Contains(id) {
				continue
			}
			c := &sn.super.Cells[id]
			if c.KHi > sk {
				sk = c.KHi
			}
			if c.CHi > sc {
				sc = c.CHi
			}
			if cache.Contains(id) {
				if c.KHi > ik {
					ik = c.KHi
				}
				if c.CHi > ic {
					ic = c.CHi
				}
			}
		}
		// Two separate adds per layer, K then C, matching an
		// element-order summation over the encoding vector.
		numS += float64(ik) * float64(ik)
		numS += float64(ic) * float64(ic)
		denS += float64(sk) * float64(sk)
		denS += float64(sc) * float64(sc)
	}
	den := math.Sqrt(denS)
	if den == 0 {
		return 0
	}
	return math.Sqrt(numS) / den
}

// Distance is the Euclidean distance between two encoding vectors,
// SushiSched's similarity measure (Fig. 3 and Alg. 1).
func Distance(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	// Dimensions present in only one vector count fully.
	for i := n; i < len(a); i++ {
		s += a[i] * a[i]
	}
	for i := n; i < len(b); i++ {
		s += b[i] * b[i]
	}
	return math.Sqrt(s)
}
