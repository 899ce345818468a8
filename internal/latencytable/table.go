package latencytable

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"

	"sushi/internal/accel"
	"sushi/internal/supernet"
)

// Table is SushiAbs's black-box lookup table: Lat[i][j] is the end-to-end
// latency (seconds) of serving SubNet i while SubGraph j is cached.
// Row/column order matches the SubNets/Graphs slices. Lookups are O(1);
// the per-query selections walk the rows of one column and nearest-graph
// queries are O(|S|·dim), both as in Algorithm 1.
//
// A Table is immutable once its constructor (Build, FromMatrices, Decode)
// returns: nothing is built lazily, so any number of replicas may share
// one and read it concurrently without a lock.
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
	// acc[i] is SubNets[i].Accuracy and cols[j] column j of Lat and Item,
	// copied out contiguously so the per-query row scans touch two flat
	// slices instead of a pointer per row. The exported matrices remain
	// the source of truth.
	acc  []float64
	cols []column
	// maxAccRow is the argmax-accuracy row (lowest row index among
	// equals): STRICT_ACCURACY's fallback when no row meets the floor.
	maxAccRow int
}

// column is one cache state's slice of the table in row order.
type column struct {
	// lat[i] is Lat[i][j]; item[i] is Item[i][j].
	lat, item []float64
	// minLat is the smallest lat[i].
	minLat float64
}

// argminLatency returns the row with the smallest batched latency
// lat[i] + k*item[i] (k as Table.column returns it), lowest row index
// among equals.
func (c *column) argminLatency(k float64) int {
	best, bestLat := 0, 0.0
	for i, l := range c.lat {
		if k != 0 {
			l += k * c.item[i]
		}
		if i == 0 || l < bestLat {
			best, bestLat = i, l
		}
	}
	return best
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

// buildVectors derives everything the table caches from its exported
// fields; every constructor ends with it.
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
	t.buildColumns()
}

// buildColumns copies the accuracies and each column of Lat and Item
// into the flat slices the row scans read, and derives the scalars the
// serving path reads in O(1).
func (t *Table) buildColumns() {
	rows, cols := t.Rows(), t.Cols()
	t.acc = make([]float64, rows)
	for i, sn := range t.SubNets {
		t.acc[i] = sn.Accuracy
		if sn.Accuracy > t.acc[t.maxAccRow] {
			t.maxAccRow = i
		}
	}
	lat, item := make([]float64, rows*cols), make([]float64, rows*cols)
	t.cols = make([]column, cols)
	for j := range t.cols {
		c := &t.cols[j]
		c.lat = lat[j*rows : (j+1)*rows : (j+1)*rows]
		c.item = item[j*rows : (j+1)*rows : (j+1)*rows]
		for i := 0; i < rows; i++ {
			c.lat[i], c.item[i] = t.Lat[i][j], t.Item[i][j]
		}
		c.minLat = c.lat[c.argminLatency(0)]
	}
}

// column returns column j and the multiplier k that turns its solo
// latencies into LookupBatch(·, j, n) = lat[i] + k*item[i]: n-1 for a
// batch of n, and 0 — add nothing, the solo latency exactly — when
// n <= 1.
func (t *Table) column(j, n int) (*column, float64) {
	return &t.cols[j], float64(max(n, 1) - 1)
}

// RowVector returns SubNet row i's precomputed encoding vector. The
// slice is shared and read-only; callers must not mutate it.
func (t *Table) RowVector(i int) []float64 { return t.rowVectors[i] }

// GraphBytes returns column j's SubGraph footprint, Graphs[j].Bytes(),
// precomputed.
func (t *Table) GraphBytes(j int) int64 { return t.graphBytes[j] }

// MinLatency returns the smallest latency any row achieves under
// column j, precomputed.
func (t *Table) MinLatency(j int) float64 { return t.cols[j].minLat }

// MostAccurateRow returns the argmax-accuracy row (lowest row index
// among equals), precomputed: STRICT_ACCURACY's fallback.
func (t *Table) MostAccurateRow() int { return t.maxAccRow }

// FastestFeasible answers the STRICT_ACCURACY per-query decision for a
// solo serve: FastestFeasibleBatch for a batch of one.
func (t *Table) FastestFeasible(acc float64, j int) (int, bool) {
	return t.FastestFeasibleBatch(acc, j, 1)
}

// MostAccurateWithin answers the STRICT_LATENCY per-query decision for
// a solo serve: MostAccurateWithinBatch for a batch of one.
func (t *Table) MostAccurateWithin(lat float64, j int) (int, bool) {
	return t.MostAccurateWithinBatch(lat, j, 1)
}

// FastestFeasibleBatch is Algorithm 1's STRICT_ACCURACY walk over X for
// n same-SubNet queries served together under column j: the row with the
// minimum LookupBatch(·, j, n) among those whose accuracy is not below
// floor acc. Only a strict improvement replaces the choice, so the
// lowest row index wins among equals; the floor is tested as
// !(a < acc), so a NaN floor excludes no row. The second result reports
// feasibility; when false the returned row is the argmax-accuracy
// fallback.
func (t *Table) FastestFeasibleBatch(acc float64, j, n int) (int, bool) {
	c, k := t.column(j, n)
	accs := t.acc[:len(c.lat)]
	best, bestLat := -1, 0.0
	for i, l := range c.lat {
		if k != 0 {
			l += k * c.item[i]
		}
		if !(accs[i] < acc) && (best < 0 || l < bestLat) {
			best, bestLat = i, l
		}
	}
	if best < 0 {
		return t.maxAccRow, false
	}
	return best, true
}

// MostAccurateWithinBatch is Algorithm 1's STRICT_LATENCY walk over X
// for n same-SubNet queries served together under column j: the row
// with the maximum accuracy among those whose LookupBatch(·, j, n) does
// not exceed budget lat, with the same tie-break and the same NaN rule.
// The second result reports feasibility; when false the returned row is
// the column's argmin batched latency.
func (t *Table) MostAccurateWithinBatch(lat float64, j, n int) (int, bool) {
	c, k := t.column(j, n)
	accs := t.acc[:len(c.lat)]
	best, bestAcc := -1, 0.0
	for i, l := range c.lat {
		if k != 0 {
			l += k * c.item[i]
		}
		if a := accs[i]; !(l > lat) && (best < 0 || a > bestAcc) {
			best, bestAcc = i, a
		}
	}
	if best < 0 {
		return c.argminLatency(k), false
	}
	return best, true
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
// For n <= 1 it is Lookup(i, j) exactly.
func (t *Table) LookupBatch(i, j, n int) float64 {
	if n <= 1 {
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

// FromMatrices builds a table directly from externally produced
// matrices — the constructor measured calibration uses: lat[i][j] is
// seconds of serving latency for SubNet i under cached SubGraph j,
// item its per-item share, energy its off-chip joules; all three are
// required. The matrices are adopted, not copied. Dimensions and value
// sanity are validated before anything is derived from them, so a table
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

// validateMatrices checks that Lat, Item and Energy are rows×cols with
// finite non-negative entries. Run by every constructor that accepts
// matrices it did not compute itself.
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
	if err := check("Item", t.Item); err != nil {
		return err
	}
	return check("Energy", t.Energy)
}

// wireTable is the gob wire format: SubGraphs travel as cell-ID lists and
// are re-bound to a SuperNet on decode.
type wireTable struct {
	SubNetNames []string
	GraphNames  []string
	GraphCells  [][]int
	NumCells    int
	Lat         [][]float64
	Item        [][]float64
	Energy      [][]float64
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
// name. The subnets must cover every row name in the stream, each at
// most once. The stream is outside input: whatever it holds, Decode
// returns an error or a table that passes FromMatrices's checks.
func Decode(r io.Reader, super *supernet.SuperNet, subnets []*supernet.SubNet) (*Table, error) {
	var wt wireTable
	if err := gob.NewDecoder(r).Decode(&wt); err != nil {
		return nil, fmt.Errorf("latencytable: decode: %w", err)
	}
	if wt.NumCells != super.NumCells() {
		return nil, fmt.Errorf("latencytable: stream built over %d cells, supernet has %d", wt.NumCells, super.NumCells())
	}
	if len(wt.GraphCells) != len(wt.GraphNames) {
		return nil, fmt.Errorf("latencytable: stream has %d graph cell lists for %d graph names", len(wt.GraphCells), len(wt.GraphNames))
	}
	byName := map[string]*supernet.SubNet{}
	for _, sn := range subnets {
		byName[sn.Name] = sn
	}
	rows := make([]*supernet.SubNet, 0, len(wt.SubNetNames))
	seen := map[string]bool{}
	for _, name := range wt.SubNetNames {
		sn, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("latencytable: stream row %q not among supplied subnets", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("latencytable: stream names row %q twice", name)
		}
		seen[name] = true
		rows = append(rows, sn)
	}
	graphs := make([]*supernet.SubGraph, 0, len(wt.GraphCells))
	for gi, cells := range wt.GraphCells {
		g := supernet.NewSubGraph(super, wt.GraphNames[gi])
		for _, id := range cells {
			if id < 0 || id >= super.NumCells() {
				return nil, fmt.Errorf("latencytable: stream cell id %d out of range", id)
			}
			g.Add(id)
		}
		graphs = append(graphs, g)
	}
	return FromMatrices(rows, graphs, wt.Lat, wt.Item, wt.Energy)
}
