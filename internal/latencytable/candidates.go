// Package latencytable implements SushiAbs (§3.2): the accelerator-agnostic
// abstraction between SushiSched and SushiAccel. It materializes the
// candidate SubGraph set S (each member sized to the Persistent Buffer)
// and the black-box lookup table L[i][j] = latency of serving SubNet i
// with SubGraph j cached. The table is built by profiling an accelerator
// simulator offline, which is exactly how the paper keeps the scheduler
// decoupled from the hardware while retaining state awareness.
package latencytable

import (
	"fmt"
	"math/rand"
	"sort"

	"sushi/internal/supernet"
)

// Strategy selects a cell-priority order for truncating a SubNet's weight
// set to the Persistent Buffer budget. Different strategies produce
// differently *shaped* SubGraphs (Fig. 3: deep-and-thin vs
// wide-and-shallow), which is what gives the candidate set its diversity.
type Strategy int

const (
	// HeadFirst keeps whole layers from the front of the network.
	HeadFirst Strategy = iota
	// TailFirst keeps whole layers from the back, where the paper's
	// memory-bound layers live (Fig. 2) — usually the strongest choice.
	TailFirst
	// DeepThin keeps the thinnest (lowest kernel/channel segment) cells
	// of every layer before widening any single layer: a deep, thin
	// SubGraph covering the whole depth.
	DeepThin
	// WideShallow keeps every cell of each layer before moving to the
	// next, starting from the front: a wide but shallow SubGraph.
	WideShallow
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case HeadFirst:
		return "head"
	case TailFirst:
		return "tail"
	case DeepThin:
		return "deep"
	case WideShallow:
		return "wide"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Priority returns a permutation of all cell IDs of s realizing the
// strategy's order.
func Priority(s *supernet.SuperNet, st Strategy) []int {
	ids := make([]int, s.NumCells())
	for i := range ids {
		ids[i] = i
	}
	switch st {
	case HeadFirst, WideShallow:
		// Cell IDs are built layer-by-layer, so identity order already
		// walks the network front to back, widening each layer fully.
		return ids
	case TailFirst:
		sort.SliceStable(ids, func(a, b int) bool {
			return s.Cells[ids[a]].Layer > s.Cells[ids[b]].Layer
		})
		return ids
	case DeepThin:
		// Order by "ring": the maximal prefix extent the cell completes.
		// Thin rings of every layer come before wider rings anywhere.
		ring := func(id int) int {
			c := &s.Cells[id]
			r := c.KHi + c.CHi + c.AHi
			return r
		}
		sort.SliceStable(ids, func(a, b int) bool {
			ra, rb := ring(ids[a]), ring(ids[b])
			if ra != rb {
				return ra < rb
			}
			return s.Cells[ids[a]].Layer < s.Cells[ids[b]].Layer
		})
		return ids
	default:
		return ids
	}
}

// CandidateOptions controls candidate set generation.
type CandidateOptions struct {
	// Budget is the Persistent Buffer capacity in bytes; every candidate
	// fits within it.
	Budget int64
	// Count is the desired |S|. Generation first emits the structured
	// candidates (strategies x frontier + pairwise intersections), then
	// fills up with seeded random mixtures; it stops early if Count is
	// smaller.
	Count int
	// Seed drives the random mixtures for reproducibility.
	Seed int64
	// Strategies restricts the truncation shapes used; nil means all
	// four. Algorithm 1 selects candidates by vector distance, which is
	// blind to per-byte latency value, so serving systems typically keep
	// a single shape family (TailFirst) and let distance pick which
	// SubNet mix to cache for; the full set is for shape studies (Fig 3).
	Strategies []Strategy
}

// Candidates builds the SubGraph set S for a frontier (§3.2: |S| is kept
// small; SubGraph sizes are close to the cache size).
func Candidates(s *supernet.SuperNet, frontier []*supernet.SubNet, opt CandidateOptions) ([]*supernet.SubGraph, error) {
	if opt.Budget <= 0 {
		return nil, fmt.Errorf("latencytable: non-positive budget %d", opt.Budget)
	}
	if opt.Count <= 0 {
		return nil, fmt.Errorf("latencytable: non-positive count %d", opt.Count)
	}
	if len(frontier) == 0 {
		return nil, fmt.Errorf("latencytable: empty frontier")
	}
	var out []*supernet.SubGraph
	seen := map[string]bool{}
	add := func(g *supernet.SubGraph) {
		if len(out) >= opt.Count || g.Count() == 0 {
			return
		}
		key := Fingerprint(g)
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, g)
	}

	strategies := opt.Strategies
	if len(strategies) == 0 {
		strategies = []Strategy{TailFirst, DeepThin, WideShallow, HeadFirst}
	}
	// Structured candidates: every frontier SubNet under every strategy.
	for _, st := range strategies {
		prio := Priority(s, st)
		for _, sn := range frontier {
			g := sn.Graph.TruncateToBudget(opt.Budget, prio)
			g.SetName(fmt.Sprintf("%s-%s", sn.Name, st))
			add(g)
		}
	}
	// Pairwise intersections (the weights shared by two SubNets), tail
	// truncated.
	tail := Priority(s, TailFirst)
	for i := 0; i < len(frontier) && len(out) < opt.Count; i++ {
		for j := i + 1; j < len(frontier) && len(out) < opt.Count; j++ {
			inter, err := frontier[i].Graph.Intersect(frontier[j].Graph)
			if err != nil {
				return nil, err
			}
			g := inter.TruncateToBudget(opt.Budget, tail)
			g.SetName(fmt.Sprintf("%s∩%s-tail", frontier[i].Name, frontier[j].Name))
			add(g)
		}
	}
	// Random mixtures fill the remainder: a random frontier member, a
	// random strategy, and a random rotation of the priority order.
	rng := rand.New(rand.NewSource(opt.Seed))
	for tries := 0; len(out) < opt.Count && tries < opt.Count*50; tries++ {
		sn := frontier[rng.Intn(len(frontier))]
		st := strategies[rng.Intn(len(strategies))]
		prio := Priority(s, st)
		rot := rng.Intn(len(prio))
		rotated := append(append([]int{}, prio[rot:]...), prio[:rot]...)
		g := sn.Graph.TruncateToBudget(opt.Budget, rotated)
		g.SetName(fmt.Sprintf("%s-%s-r%d", sn.Name, st, rot))
		add(g)
	}
	if len(out) < opt.Count {
		// The space of distinct candidates can be smaller than requested
		// for tiny supernets; return what exists rather than failing.
		return out, nil
	}
	return out, nil
}

// Fingerprint returns a content hash key of a SubGraph's cell set —
// the deduplication key Candidates uses internally, exported so
// serving's table derivation, which draws one candidate set per level
// of a budget ladder, dedupes across levels with the SAME key.
func Fingerprint(g *supernet.SubGraph) string {
	// FNV-1a over the cell id stream.
	var h uint64 = 14695981039346656037
	for _, id := range g.Cells() {
		h ^= uint64(id)
		h *= 1099511628211
	}
	return fmt.Sprintf("%016x-%d", h, g.Count())
}
