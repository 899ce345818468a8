package latencytable

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"sushi/internal/supernet"
)

// scanFastestFeasible is the reference row scan for FastestFeasibleBatch:
// minimum batched latency among rows meeting the accuracy floor, strict
// improvement (lowest row index on ties); argmax accuracy fallback.
func scanFastestFeasible(tab *Table, acc float64, j, n int) (int, bool) {
	best, found := -1, false
	for i := 0; i < tab.Rows(); i++ {
		if tab.SubNets[i].Accuracy < acc {
			continue
		}
		if !found || tab.LookupBatch(i, j, n) < tab.LookupBatch(best, j, n) {
			best, found = i, true
		}
	}
	if found {
		return best, true
	}
	best = 0
	for i := 1; i < tab.Rows(); i++ {
		if tab.SubNets[i].Accuracy > tab.SubNets[best].Accuracy {
			best = i
		}
	}
	return best, false
}

// scanMostAccurateWithin is the reference row scan for
// MostAccurateWithinBatch: maximum accuracy among rows whose batched
// latency fits the budget, strict improvement; argmin-latency fallback.
func scanMostAccurateWithin(tab *Table, lat float64, j, n int) (int, bool) {
	best, found := -1, false
	for i := 0; i < tab.Rows(); i++ {
		if tab.LookupBatch(i, j, n) > lat {
			continue
		}
		if !found || tab.SubNets[i].Accuracy > tab.SubNets[best].Accuracy {
			best, found = i, true
		}
	}
	if found {
		return best, true
	}
	best = 0
	for i := 1; i < tab.Rows(); i++ {
		if tab.LookupBatch(i, j, n) < tab.LookupBatch(best, j, n) {
			best = i
		}
	}
	return best, false
}

// scanNearestWithin is the reference for NearestGraphWithin: footprints
// and encodings re-derived from the cell lists on every call.
func scanNearestWithin(tab *Table, v []float64, maxBytes int64) int {
	best, bestD := -1, 0.0
	for j, g := range tab.Graphs {
		if maxBytes > 0 && g.Bytes() > maxBytes {
			continue
		}
		if d := supernet.Distance(g.Vector(), v); best < 0 || d < bestD {
			best, bestD = j, d
		}
	}
	if best >= 0 {
		return best
	}
	best = 0
	for j, g := range tab.Graphs {
		if g.Bytes() < tab.Graphs[best].Bytes() {
			best = j
		}
	}
	return best
}

// checkGraphBytes asserts that the precomputed footprints are the cell
// lists' and that NearestGraphWithin answers as the scan does under no
// budget, a budget below the smallest column, one at and one between
// every pair of column sizes, and one above all of them.
func checkGraphBytes(t *testing.T, tab *Table, label string) {
	t.Helper()
	budgets := []int64{0}
	for j, g := range tab.Graphs {
		b := g.Bytes()
		if got := tab.GraphBytes(j); got != b {
			t.Fatalf("%s: GraphBytes(%d) = %d, Graphs[%d].Bytes() = %d", label, j, got, j, b)
		}
		budgets = append(budgets, b/2, b, b+1)
		for _, o := range tab.Graphs[:j] {
			budgets = append(budgets, (b+o.Bytes())/2)
		}
	}
	probes := make([][]float64, 0, tab.Rows()+tab.Cols())
	for i := range tab.SubNets {
		probes = append(probes, tab.RowVector(i))
	}
	for _, g := range tab.Graphs {
		probes = append(probes, g.Vector())
	}
	for _, v := range probes {
		for _, b := range budgets {
			if got, want := tab.NearestGraphWithin(v, b), scanNearestWithin(tab, v, b); got != want {
				t.Fatalf("%s: NearestGraphWithin(budget %d) = %d, scan %d", label, b, got, want)
			}
		}
	}
}

// checkOrderingInvariants asserts that every selection the table answers
// from its column-major copies is bit-identical to the reference row
// scan over the exported matrices, probing exactly at the tie-sensitive
// values (each row's own accuracy/latency) plus epsilon-offset, NaN and
// infinite constraints, for solo and batched lookups, and that the
// precomputed scalars are the matrices' own.
func checkOrderingInvariants(t *testing.T, tab *Table, label string) {
	t.Helper()
	checkGraphBytes(t, tab, label)
	for j := 0; j < tab.Cols(); j++ {
		colMin := math.Inf(1)
		for i := 0; i < tab.Rows(); i++ {
			colMin = math.Min(colMin, tab.Lat[i][j])
		}
		if got := tab.MinLatency(j); got != colMin {
			t.Fatalf("%s: MinLatency(%d) = %v, column minimum %v", label, j, got, colMin)
		}
		for _, n := range []int{1, 2, 4} {
			accProbes := []float64{math.NaN(), 0, math.Inf(1), math.Inf(-1)}
			latProbes := []float64{math.NaN(), 0, math.Inf(1), math.Inf(-1)}
			for i := 0; i < tab.Rows(); i++ {
				a := tab.SubNets[i].Accuracy
				accProbes = append(accProbes, a, a-1e-9, a+1e-9)
				l := tab.LookupBatch(i, j, n)
				latProbes = append(latProbes, l, l*(1-1e-12), l*(1+1e-12))
			}
			for _, acc := range accProbes {
				gi, gf := tab.FastestFeasibleBatch(acc, j, n)
				wi, wf := scanFastestFeasible(tab, acc, j, n)
				if gi != wi || gf != wf {
					t.Fatalf("%s: FastestFeasibleBatch(%v, %d, %d) = (%d,%v), scan (%d,%v)",
						label, acc, j, n, gi, gf, wi, wf)
				}
			}
			for _, lat := range latProbes {
				gi, gf := tab.MostAccurateWithinBatch(lat, j, n)
				wi, wf := scanMostAccurateWithin(tab, lat, j, n)
				if gi != wi || gf != wf {
					t.Fatalf("%s: MostAccurateWithinBatch(%v, %d, %d) = (%d,%v), scan (%d,%v)",
						label, lat, j, n, gi, gf, wi, wf)
				}
			}
		}
		// The solo names are the batch-of-one forms.
		a, l := tab.SubNets[0].Accuracy, tab.Lat[0][j]
		gi, gf := tab.FastestFeasible(a, j)
		if wi, wf := scanFastestFeasible(tab, a, j, 1); gi != wi || gf != wf {
			t.Fatalf("%s: FastestFeasible(%v, %d) = (%d,%v), scan (%d,%v)", label, a, j, gi, gf, wi, wf)
		}
		gi, gf = tab.MostAccurateWithin(l, j)
		if wi, wf := scanMostAccurateWithin(tab, l, j, 1); gi != wi || gf != wf {
			t.Fatalf("%s: MostAccurateWithin(%v, %d) = (%d,%v), scan (%d,%v)", label, l, j, gi, gf, wi, wf)
		}
	}
}

// TestOrderingInvariants pins the table's selections against the row
// scans on a real built table, then re-pins after every other way a
// table comes to exist (a gob encode/decode round trip, FromMatrices)
// and after NearestGraphWithin queries, which must not perturb it.
func TestOrderingInvariants(t *testing.T) {
	s, fr, cfg := testFixture(t)
	cands, err := Candidates(s, fr, CandidateOptions{Budget: cfg.PBBytes, Count: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Build(cfg, fr, cands)
	if err != nil {
		t.Fatal(err)
	}
	checkOrderingInvariants(t, tab, "built")

	// Gob round trip: the decoded table derives its copies from the wire
	// matrices.
	var buf bytes.Buffer
	if err := tab.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(&buf, s, fr)
	if err != nil {
		t.Fatal(err)
	}
	checkOrderingInvariants(t, dec, "decoded")

	// FromMatrices adopts externally produced matrices and finalises the
	// same way.
	fm, err := FromMatrices(fr, cands, tab.Lat, tab.Item, tab.Energy)
	if err != nil {
		t.Fatal(err)
	}
	checkOrderingInvariants(t, fm, "from matrices")

	// NearestGraphWithin under a capping budget must leave the table as
	// it was (read-only) and cap correctly.
	v := tab.RowVector(tab.Rows() - 1)
	budget := tab.Graphs[0].Bytes()
	col := tab.NearestGraphWithin(v, budget)
	if got := tab.Graphs[col].Bytes(); got > budget {
		t.Fatalf("NearestGraphWithin returned column %d (%d B) over budget %d B", col, got, budget)
	}
	checkOrderingInvariants(t, tab, "after NearestGraphWithin")
}

// TestOrderingInvariantsRandomTables is the property test: random
// matrices with deliberately heavy value ties (so tie-break order, not
// just values, is exercised) must give scan-identical answers, with a
// random and with a zero Item matrix.
func TestOrderingInvariantsRandomTables(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	super := supernet.NewOFAMobileNetV3()
	for trial := 0; trial < 30; trial++ {
		rows := 2 + rng.Intn(7)
		cols := 1 + rng.Intn(4)
		tab := &Table{
			SubNets: make([]*supernet.SubNet, rows),
			Graphs:  make([]*supernet.SubGraph, cols),
			Lat:     make([][]float64, rows),
			Item:    make([][]float64, rows),
			Energy:  make([][]float64, rows),
		}
		withItem := trial%3 != 2
		for i := 0; i < rows; i++ {
			// Coarse quantization forces duplicate accuracies/latencies.
			tab.SubNets[i] = &supernet.SubNet{Accuracy: 70 + float64(rng.Intn(8))}
			tab.Lat[i] = make([]float64, cols)
			tab.Item[i] = make([]float64, cols)
			tab.Energy[i] = make([]float64, cols)
			for j := 0; j < cols; j++ {
				tab.Lat[i][j] = float64(1+rng.Intn(6)) * 1e-3
				tab.Energy[i][j] = 1e-3
				if withItem {
					tab.Item[i][j] = float64(rng.Intn(4)) * 1e-4
				}
			}
		}
		// Random cell subsets as columns; every third repeats its left
		// neighbour, so equal footprints and distances tie.
		for j := range tab.Graphs {
			if j > 0 && j%3 == 2 {
				tab.Graphs[j] = tab.Graphs[j-1].Clone()
				continue
			}
			g := supernet.NewSubGraph(super, "random")
			for id := 0; id < super.NumCells(); id++ {
				if rng.Intn(4) == 0 {
					g.Add(id)
				}
			}
			tab.Graphs[j] = g
		}
		tab.buildVectors()
		checkOrderingInvariants(t, tab, "random")
	}
}
