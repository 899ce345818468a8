package latencytable

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"

	"sushi/internal/accel"
	"sushi/internal/supernet"
)

// Table is SushiAbs's black-box lookup table: Lat[i][j] is the end-to-end
// latency (seconds) of serving SubNet i while SubGraph j is cached.
// Row/column order matches the SubNets/Graphs slices. Lookups are O(1);
// nearest-graph queries are O(|S|·dim) as in Algorithm 1.
type Table struct {
	// SubNets are the serving set X (rows).
	SubNets []*supernet.SubNet
	// Graphs are the candidate set S (columns).
	Graphs []*supernet.SubGraph
	// Lat[i][j] is seconds of serving latency.
	Lat [][]float64
	// Item[i][j] is the per-item share of Lat[i][j]: the compute and
	// visible activation-traffic time that every member of a micro-batch
	// pays, as opposed to the weight-fetch time paid once per batch.
	// Lat[i][j] - Item[i][j] is therefore the batch-stationary weight
	// component, and LookupBatch derives batched latencies from the two.
	Item [][]float64
	// Energy[i][j] is off-chip energy in joules for the same pairing
	// (the paper notes SushiAbs can abstract energy the same way).
	Energy [][]float64
	// vectors caches each column's encoding for nearest-graph queries.
	vectors [][]float64
	// rowVectors caches each row's (SubNet's) encoding so per-query
	// window observations never re-derive it. Read-only after build.
	rowVectors [][]float64
	// graphBytes[j] is Graphs[j].Bytes(), so share checks on the serving
	// path never re-walk a column's cell list. Read-only after build.
	graphBytes []int64
	// index holds the precomputed per-column feasibility structures the
	// scheduler's hot path binary-searches instead of scanning rows.
	index *tableIndex
	// batchMu guards batchOrders. Tables are shared across replicas, so
	// the lazily built per-(column, batch size) orderings need a lock;
	// the solo index above is built before sharing and stays lock-free.
	batchMu sync.RWMutex
	// batchOrders memoizes batchOrderFor: one sorted ordering of the
	// batched latencies LookupBatch(·, j, n) per (j, n) actually queried.
	batchOrders map[batchKey]*batchOrder
}

// batchKey identifies one lazily built batched ordering.
type batchKey struct {
	col int
	n   int
}

// batchOrder is the batched-latency analogue of colIndex: the same
// sorted-order + prefix/suffix argmin/argmax structures, computed over
// LookupBatch(i, col, n) instead of Lat[i][col], with identical
// tie-breaks — so batched feasibility checks binary-search too.
type batchOrder struct {
	sufMinLat []int
	latPerm   []int
	latSorted []float64
	preMaxAcc []int
	minLatRow int
	minLat    float64
}

// tableIndex is the precomputed feasibility index: for each policy's
// hard constraint, the rows sorted by the constrained quantity plus
// running argmin/argmax structures that reproduce the row-scan
// tie-breaks (lowest original row index wins) exactly.
type tableIndex struct {
	// accPerm lists rows sorted by (accuracy asc, row asc); accSorted is
	// the accuracy in that order. Accuracy is column-independent, so one
	// permutation serves every column.
	accPerm   []int
	accSorted []float64
	// maxAccRow is the scan-equivalent argmax-accuracy row (first strict
	// max, i.e. lowest row index among ties).
	maxAccRow int
	// minLat is the smallest latency anywhere in the table — the
	// tightest lower bound on any service completing.
	minLat float64
	cols   []colIndex
}

// colIndex is one column's slice of the feasibility index.
type colIndex struct {
	// sufMinLat[p] is the min-latency row among accPerm[p:] (the rows
	// meeting an accuracy floor that binary-searches to position p),
	// ties resolved to the lowest row index.
	sufMinLat []int
	// latPerm lists rows sorted by (latency asc, row asc) under this
	// column; latSorted is the latency in that order.
	latPerm   []int
	latSorted []float64
	// preMaxAcc[p] is the max-accuracy row among latPerm[:p+1] (the rows
	// meeting a latency budget that binary-searches past position p),
	// ties resolved to the lowest row index.
	preMaxAcc []int
	// minLatRow/minLat are the column's scan-equivalent argmin latency
	// (first strict min) and its value.
	minLatRow int
	minLat    float64
	// itemPerm lists rows sorted by (per-item latency asc, row asc);
	// itemSorted is Item in that order. Batched latencies
	// Lat + (n-1)*Item converge to this order as n grows, so batch
	// orderings start their sort from it (nearly sorted for large n).
	// Nil when the table predates the Item matrix.
	itemPerm   []int
	itemSorted []float64
}

// Build profiles every (SubNet, SubGraph) pairing and returns the
// populated table. Columns are independent — each gets its own simulator
// instance — so profiling parallelizes across GOMAXPROCS workers while
// staying fully deterministic (results are written by index).
func Build(cfg accel.Config, subnets []*supernet.SubNet, graphs []*supernet.SubGraph) (*Table, error) {
	if len(subnets) == 0 {
		return nil, fmt.Errorf("latencytable: no subnets")
	}
	if len(graphs) == 0 {
		return nil, fmt.Errorf("latencytable: no graphs")
	}
	t := &Table{SubNets: subnets, Graphs: graphs}
	t.Lat = make([][]float64, len(subnets))
	t.Item = make([][]float64, len(subnets))
	t.Energy = make([][]float64, len(subnets))
	for i := range t.Lat {
		t.Lat[i] = make([]float64, len(graphs))
		t.Item[i] = make([]float64, len(graphs))
		t.Energy[i] = make([]float64, len(graphs))
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(graphs) {
		workers = len(graphs)
	}
	// Buffered and pre-filled so an early-exiting worker can never block
	// the producer.
	cols := make(chan int, len(graphs))
	for j := range graphs {
		cols <- j
	}
	close(cols)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sim, err := accel.NewSimulator(cfg)
			if err != nil {
				errs <- err
				return
			}
			for j := range cols {
				g := graphs[j]
				// An empty SubGraph is the cold-cache column and is
				// legal on any configuration, including ones without a
				// Persistent Buffer.
				if g.Count() == 0 {
					err = sim.SetCached(nil)
				} else {
					err = sim.SetCached(g)
				}
				if err != nil {
					errs <- fmt.Errorf("latencytable: column %d (%s): %w", j, g.Name(), err)
					return
				}
				for i, sn := range subnets {
					rep, err := sim.Run(sn)
					if err != nil {
						errs <- fmt.Errorf("latencytable: row %d (%s): %w", i, sn.Name, err)
						return
					}
					t.Lat[i][j] = rep.Total()
					t.Item[i][j] = rep.PerItem()
					t.Energy[i][j] = rep.OffChipEnergyJ
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	t.buildVectors()
	return t, nil
}

func (t *Table) buildVectors() {
	t.vectors = make([][]float64, len(t.Graphs))
	t.graphBytes = make([]int64, len(t.Graphs))
	for j, g := range t.Graphs {
		t.vectors[j] = g.Vector()
		t.graphBytes[j] = g.Bytes()
	}
	t.rowVectors = make([][]float64, len(t.SubNets))
	for i, sn := range t.SubNets {
		t.rowVectors[i] = sn.Vector()
	}
	t.buildIndex()
}

// buildIndex derives the feasibility index from the populated matrices.
// Every constructor (Build, Truncate, Decode) runs it before the table
// is shared, so readers never synchronize. The running argmin/argmax
// structures use the same comparison the row scans used — strict
// improvement, equal values resolved to the lower row index — so index
// answers are bit-identical to scan answers.
func (t *Table) buildIndex() {
	rows, cols := t.Rows(), t.Cols()
	idx := &tableIndex{
		accPerm:   make([]int, rows),
		accSorted: make([]float64, rows),
		cols:      make([]colIndex, cols),
	}
	for i := range idx.accPerm {
		idx.accPerm[i] = i
	}
	sort.SliceStable(idx.accPerm, func(a, b int) bool {
		return t.SubNets[idx.accPerm[a]].Accuracy < t.SubNets[idx.accPerm[b]].Accuracy
	})
	for p, r := range idx.accPerm {
		idx.accSorted[p] = t.SubNets[r].Accuracy
	}
	for i := 1; i < rows; i++ {
		if t.SubNets[i].Accuracy > t.SubNets[idx.maxAccRow].Accuracy {
			idx.maxAccRow = i
		}
	}
	idx.minLat = math.Inf(1)
	for j := 0; j < cols; j++ {
		ci := colIndex{
			sufMinLat: make([]int, rows),
			latPerm:   make([]int, rows),
			latSorted: make([]float64, rows),
			preMaxAcc: make([]int, rows),
		}
		// Suffix argmin latency over the accuracy-sorted order.
		for p := rows - 1; p >= 0; p-- {
			best := idx.accPerm[p]
			if p < rows-1 {
				if prev := ci.sufMinLat[p+1]; t.Lat[prev][j] < t.Lat[best][j] ||
					(t.Lat[prev][j] == t.Lat[best][j] && prev < best) {
					best = prev
				}
			}
			ci.sufMinLat[p] = best
		}
		for i := range ci.latPerm {
			ci.latPerm[i] = i
		}
		sort.SliceStable(ci.latPerm, func(a, b int) bool {
			return t.Lat[ci.latPerm[a]][j] < t.Lat[ci.latPerm[b]][j]
		})
		for p, r := range ci.latPerm {
			ci.latSorted[p] = t.Lat[r][j]
		}
		// Prefix argmax accuracy over the latency-sorted order.
		for p := 0; p < rows; p++ {
			best := ci.latPerm[p]
			if p > 0 {
				if prev := ci.preMaxAcc[p-1]; t.SubNets[prev].Accuracy > t.SubNets[best].Accuracy ||
					(t.SubNets[prev].Accuracy == t.SubNets[best].Accuracy && prev < best) {
					best = prev
				}
			}
			ci.preMaxAcc[p] = best
		}
		ci.minLatRow = 0
		for i := 1; i < rows; i++ {
			if t.Lat[i][j] < t.Lat[ci.minLatRow][j] {
				ci.minLatRow = i
			}
		}
		ci.minLat = t.Lat[ci.minLatRow][j]
		if ci.minLat < idx.minLat {
			idx.minLat = ci.minLat
		}
		if t.Item != nil {
			ci.itemPerm = make([]int, rows)
			ci.itemSorted = make([]float64, rows)
			for i := range ci.itemPerm {
				ci.itemPerm[i] = i
			}
			sort.SliceStable(ci.itemPerm, func(a, b int) bool {
				return t.Item[ci.itemPerm[a]][j] < t.Item[ci.itemPerm[b]][j]
			})
			for p, r := range ci.itemPerm {
				ci.itemSorted[p] = t.Item[r][j]
			}
		}
		idx.cols[j] = ci
	}
	t.index = idx
	// Any batched orderings computed over the previous matrices are
	// stale; Truncate and Decode both land here, so they rebuild lazily.
	t.batchMu.Lock()
	t.batchOrders = nil
	t.batchMu.Unlock()
}

// batchOrderFor returns the batched-latency ordering for (column j,
// batch size n), building and memoizing it on first use. Safe for
// concurrent use across the replicas sharing the table.
func (t *Table) batchOrderFor(j, n int) *batchOrder {
	k := batchKey{col: j, n: n}
	t.batchMu.RLock()
	bo := t.batchOrders[k]
	t.batchMu.RUnlock()
	if bo != nil {
		return bo
	}
	t.batchMu.Lock()
	defer t.batchMu.Unlock()
	if bo = t.batchOrders[k]; bo != nil {
		return bo
	}
	rows := t.Rows()
	idx := t.index
	bo = &batchOrder{
		sufMinLat: make([]int, rows),
		latPerm:   make([]int, rows),
		latSorted: make([]float64, rows),
		preMaxAcc: make([]int, rows),
	}
	// Start from the per-item order when available: batched latencies
	// converge to it as n grows, so the sort sees nearly sorted input.
	// The starting permutation cannot change any answer — ties inside
	// the prefix/suffix structures resolve by explicit row comparison.
	if ip := idx.cols[j].itemPerm; ip != nil {
		copy(bo.latPerm, ip)
	} else {
		for i := range bo.latPerm {
			bo.latPerm[i] = i
		}
	}
	sort.SliceStable(bo.latPerm, func(a, b int) bool {
		return t.LookupBatch(bo.latPerm[a], j, n) < t.LookupBatch(bo.latPerm[b], j, n)
	})
	for p, r := range bo.latPerm {
		bo.latSorted[p] = t.LookupBatch(r, j, n)
	}
	// Prefix argmax accuracy over the batched-latency order and suffix
	// argmin batched latency over the accuracy order — same comparisons
	// as buildIndex, with Lat replaced by LookupBatch.
	for p := 0; p < rows; p++ {
		best := bo.latPerm[p]
		if p > 0 {
			if prev := bo.preMaxAcc[p-1]; t.SubNets[prev].Accuracy > t.SubNets[best].Accuracy ||
				(t.SubNets[prev].Accuracy == t.SubNets[best].Accuracy && prev < best) {
				best = prev
			}
		}
		bo.preMaxAcc[p] = best
	}
	for p := rows - 1; p >= 0; p-- {
		best := idx.accPerm[p]
		if p < rows-1 {
			if prev := bo.sufMinLat[p+1]; t.LookupBatch(prev, j, n) < t.LookupBatch(best, j, n) ||
				(t.LookupBatch(prev, j, n) == t.LookupBatch(best, j, n) && prev < best) {
				best = prev
			}
		}
		bo.sufMinLat[p] = best
	}
	bo.minLatRow = 0
	for i := 1; i < rows; i++ {
		if t.LookupBatch(i, j, n) < t.LookupBatch(bo.minLatRow, j, n) {
			bo.minLatRow = i
		}
	}
	bo.minLat = t.LookupBatch(bo.minLatRow, j, n)
	if t.batchOrders == nil {
		t.batchOrders = make(map[batchKey]*batchOrder)
	}
	t.batchOrders[k] = bo
	return bo
}

// RowVector returns SubNet row i's precomputed encoding vector. The
// slice is shared and read-only; callers must not mutate it.
func (t *Table) RowVector(i int) []float64 { return t.rowVectors[i] }

// GraphBytes returns column j's SubGraph footprint, Graphs[j].Bytes(),
// precomputed.
func (t *Table) GraphBytes(j int) int64 { return t.graphBytes[j] }

// MinLatency returns the smallest latency any row achieves under
// column j — the scan-equivalent argmin value, precomputed.
func (t *Table) MinLatency(j int) float64 { return t.index.cols[j].minLat }

// MinLatencyRow returns the scan-equivalent argmin-latency row under
// column j (lowest row index on ties).
func (t *Table) MinLatencyRow(j int) int { return t.index.cols[j].minLatRow }

// MaxAccuracyRow returns the scan-equivalent argmax-accuracy row
// (lowest row index on ties).
func (t *Table) MaxAccuracyRow() int { return t.index.maxAccRow }

// GlobalMinLatency returns the smallest latency anywhere in the table —
// the tightest bound on any service completing.
func (t *Table) GlobalMinLatency() float64 { return t.index.minLat }

// FastestFeasible answers the STRICT_ACCURACY per-query decision for a
// solo serve: the minimum-latency row whose accuracy meets floor A
// under column j, with the row-scan tie-breaks, via binary search. The
// second result reports feasibility; when false the returned row is
// the scan-equivalent argmax-accuracy fallback.
func (t *Table) FastestFeasible(acc float64, j int) (int, bool) {
	idx := t.index
	p := 0
	if !math.IsNaN(acc) {
		p = sort.SearchFloat64s(idx.accSorted, acc)
	}
	if p >= len(idx.accSorted) {
		return idx.maxAccRow, false
	}
	return idx.cols[j].sufMinLat[p], true
}

// MostAccurateWithin answers the STRICT_LATENCY per-query decision for
// a solo serve: the maximum-accuracy row whose latency fits budget L
// under column j, with the row-scan tie-breaks, via binary search. The
// second result reports feasibility; when false the returned row is
// the column's argmin-latency fallback.
func (t *Table) MostAccurateWithin(lat float64, j int) (int, bool) {
	ci := &t.index.cols[j]
	// First position strictly past the budget: rows latPerm[:p] fit.
	p := sort.Search(len(ci.latSorted), func(i int) bool { return ci.latSorted[i] > lat })
	if p == 0 {
		return ci.minLatRow, false
	}
	return ci.preMaxAcc[p-1], true
}

// FastestFeasibleBatch is FastestFeasible over batched latencies: the
// minimum LookupBatch(·, j, n) row whose accuracy meets floor A, with
// the row-scan tie-breaks. n <= 1 (or a table without Item) delegates
// to the solo index.
func (t *Table) FastestFeasibleBatch(acc float64, j, n int) (int, bool) {
	if n <= 1 || t.Item == nil {
		return t.FastestFeasible(acc, j)
	}
	idx := t.index
	p := 0
	if !math.IsNaN(acc) {
		p = sort.SearchFloat64s(idx.accSorted, acc)
	}
	if p >= len(idx.accSorted) {
		return idx.maxAccRow, false
	}
	return t.batchOrderFor(j, n).sufMinLat[p], true
}

// MostAccurateWithinBatch is MostAccurateWithin over batched latencies:
// the maximum-accuracy row whose LookupBatch(·, j, n) fits budget L,
// with the row-scan tie-breaks. n <= 1 (or a table without Item)
// delegates to the solo index.
func (t *Table) MostAccurateWithinBatch(lat float64, j, n int) (int, bool) {
	if n <= 1 || t.Item == nil {
		return t.MostAccurateWithin(lat, j)
	}
	bo := t.batchOrderFor(j, n)
	p := sort.Search(len(bo.latSorted), func(i int) bool { return bo.latSorted[i] > lat })
	if p == 0 {
		return bo.minLatRow, false
	}
	return bo.preMaxAcc[p-1], true
}

// MinLatencyRowBatch returns the scan-equivalent argmin of the batched
// latency LookupBatch(·, j, n) (lowest row index on ties).
func (t *Table) MinLatencyRowBatch(j, n int) int {
	if n <= 1 || t.Item == nil {
		return t.MinLatencyRow(j)
	}
	return t.batchOrderFor(j, n).minLatRow
}

// Rows returns |X| and Cols |S|.
func (t *Table) Rows() int { return len(t.SubNets) }

// Cols returns the candidate set size |S|.
func (t *Table) Cols() int { return len(t.Graphs) }

// Lookup returns L[i][j] in seconds.
func (t *Table) Lookup(i, j int) float64 { return t.Lat[i][j] }

// LookupBatch returns the predicted service latency (seconds) of a
// micro-batch of n same-SubNet queries: the weight-fetch component of
// L[i][j] is paid once, the per-item component n times —
//
//	L_batch(i, j, n) = L[i][j] + (n-1) * Item[i][j]
//
// For n <= 1 (including tables decoded from streams predating the Item
// matrix, where Item is nil) it degrades to Lookup(i, j) exactly.
func (t *Table) LookupBatch(i, j, n int) float64 {
	if n <= 1 || t.Item == nil {
		return t.Lat[i][j]
	}
	return t.Lat[i][j] + float64(n-1)*t.Item[i][j]
}

// NearestGraph returns the column index of the SubGraph whose encoding
// vector is closest (Euclidean) to v — Algorithm 1's
// argmin_j Dist(G_j, AvgNet) step.
func (t *Table) NearestGraph(v []float64) int {
	return t.NearestGraphWithin(v, 0)
}

// NearestGraphWithin is NearestGraph restricted to columns whose
// SubGraph fits maxBytes — the multi-tenant form of the argmin: a
// tenant of a partitioned Persistent Buffer may only cache within its
// share. A non-positive maxBytes considers every column; if no column
// fits, the smallest SubGraph wins (the least over-budget fallback, so
// a caller always gets a valid column).
func (t *Table) NearestGraphWithin(v []float64, maxBytes int64) int {
	best, bestD := -1, -1.0
	for j := range t.Graphs {
		if maxBytes > 0 && t.graphBytes[j] > maxBytes {
			continue
		}
		d := supernet.Distance(t.vectors[j], v)
		if bestD < 0 || d < bestD {
			best, bestD = j, d
		}
	}
	if best >= 0 {
		return best
	}
	smallest := 0
	for j := 1; j < len(t.Graphs); j++ {
		if t.graphBytes[j] < t.graphBytes[smallest] {
			smallest = j
		}
	}
	return smallest
}

// Truncate returns a copy of the table keeping only the first cols
// columns (Table 5's column-budget ablation). The SubNets are shared.
func (t *Table) Truncate(cols int) (*Table, error) {
	if cols <= 0 || cols > t.Cols() {
		return nil, fmt.Errorf("latencytable: truncate to %d of %d cols", cols, t.Cols())
	}
	n := &Table{SubNets: t.SubNets, Graphs: t.Graphs[:cols]}
	n.Lat = make([][]float64, len(t.Lat))
	n.Energy = make([][]float64, len(t.Energy))
	if t.Item != nil {
		n.Item = make([][]float64, len(t.Item))
	}
	for i := range t.Lat {
		n.Lat[i] = t.Lat[i][:cols]
		n.Energy[i] = t.Energy[i][:cols]
		if t.Item != nil {
			n.Item[i] = t.Item[i][:cols]
		}
	}
	n.buildVectors()
	return n, nil
}

// FromMatrices builds a table directly from externally produced
// matrices — the constructor measured calibration uses: lat[i][j] is
// seconds of serving latency for SubNet i under cached SubGraph j,
// item (optional, nil allowed) its per-item share, energy (optional)
// joules. The matrices are adopted, not copied. Dimensions and value
// sanity are validated before the ordering index is built, so a table
// returned here is interchangeable with one from Build or Decode.
func FromMatrices(subnets []*supernet.SubNet, graphs []*supernet.SubGraph, lat, item, energy [][]float64) (*Table, error) {
	if len(subnets) == 0 {
		return nil, fmt.Errorf("latencytable: no subnets")
	}
	if len(graphs) == 0 {
		return nil, fmt.Errorf("latencytable: no graphs")
	}
	t := &Table{SubNets: subnets, Graphs: graphs, Lat: lat, Item: item, Energy: energy}
	if err := t.validateMatrices(); err != nil {
		return nil, err
	}
	t.buildVectors()
	return t, nil
}

// validateMatrices checks that Lat (required) and Item/Energy
// (optional) are rows×cols with finite non-negative entries. Run by
// every constructor that accepts matrices it did not compute itself.
func (t *Table) validateMatrices() error {
	rows, cols := len(t.SubNets), len(t.Graphs)
	check := func(name string, m [][]float64) error {
		if len(m) != rows {
			return fmt.Errorf("latencytable: %s has %d rows for %d subnets", name, len(m), rows)
		}
		for i, row := range m {
			if len(row) != cols {
				return fmt.Errorf("latencytable: %s row %d has %d cols for %d graphs", name, i, len(row), cols)
			}
			for j, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					return fmt.Errorf("latencytable: %s[%d][%d] = %v is not a finite non-negative value", name, i, j, v)
				}
			}
		}
		return nil
	}
	if err := check("Lat", t.Lat); err != nil {
		return err
	}
	if t.Item != nil {
		if err := check("Item", t.Item); err != nil {
			return err
		}
	}
	if t.Energy != nil {
		if err := check("Energy", t.Energy); err != nil {
			return err
		}
	}
	return nil
}

// wireTable is the gob wire format: SubGraphs travel as cell-ID lists and
// are re-bound to a SuperNet on decode.
type wireTable struct {
	SubNetNames []string
	GraphNames  []string
	GraphCells  [][]int
	NumCells    int
	Lat         [][]float64
	// Item is the per-item (batch-scaling) share of Lat; nil in streams
	// written before micro-batching, where LookupBatch degrades to
	// Lookup.
	Item   [][]float64
	Energy [][]float64
}

// Encode serializes the table (without SubNet bodies; rows are identified
// by name and must be re-supplied on decode).
func (t *Table) Encode(w io.Writer) error {
	wt := wireTable{Lat: t.Lat, Item: t.Item, Energy: t.Energy}
	for _, sn := range t.SubNets {
		wt.SubNetNames = append(wt.SubNetNames, sn.Name)
	}
	for _, g := range t.Graphs {
		wt.GraphNames = append(wt.GraphNames, g.Name())
		wt.GraphCells = append(wt.GraphCells, g.Cells())
		wt.NumCells = g.Super().NumCells()
	}
	return gob.NewEncoder(w).Encode(&wt)
}

// Decode reconstructs a table over super, matching rows to subnets by
// name. The subnets must cover every row name in the stream.
func Decode(r io.Reader, super *supernet.SuperNet, subnets []*supernet.SubNet) (*Table, error) {
	var wt wireTable
	if err := gob.NewDecoder(r).Decode(&wt); err != nil {
		return nil, fmt.Errorf("latencytable: decode: %w", err)
	}
	if wt.NumCells != super.NumCells() {
		return nil, fmt.Errorf("latencytable: stream built over %d cells, supernet has %d", wt.NumCells, super.NumCells())
	}
	byName := map[string]*supernet.SubNet{}
	for _, sn := range subnets {
		byName[sn.Name] = sn
	}
	t := &Table{Lat: wt.Lat, Item: wt.Item, Energy: wt.Energy}
	for _, name := range wt.SubNetNames {
		sn, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("latencytable: stream row %q not among supplied subnets", name)
		}
		t.SubNets = append(t.SubNets, sn)
	}
	for gi, cells := range wt.GraphCells {
		g := supernet.NewSubGraph(super, wt.GraphNames[gi])
		for _, id := range cells {
			if id < 0 || id >= super.NumCells() {
				return nil, fmt.Errorf("latencytable: stream cell id %d out of range", id)
			}
			g.Add(id)
		}
		t.Graphs = append(t.Graphs, g)
	}
	if err := t.validateMatrices(); err != nil {
		return nil, err
	}
	t.buildVectors()
	return t, nil
}
