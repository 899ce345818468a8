package latencytable

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sushi/internal/supernet"
)

// wireFixture returns the SuperNet and frontier every decode test binds
// streams to.
func wireFixture(t testing.TB) (*supernet.SuperNet, []*supernet.SubNet) {
	t.Helper()
	s := supernet.NewOFAMobileNetV3()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	return s, fr
}

// validWire returns a fresh small valid wire table over the fixture:
// the full frontier as rows, two three-cell columns.
func validWire(s *supernet.SuperNet, fr []*supernet.SubNet) wireTable {
	wt := wireTable{
		GraphNames: []string{"head", "tail"},
		GraphCells: [][]int{{0, 1, 2}, {s.NumCells() - 3, s.NumCells() - 2, s.NumCells() - 1}},
		NumCells:   s.NumCells(),
	}
	for i, sn := range fr {
		wt.SubNetNames = append(wt.SubNetNames, sn.Name)
		base := float64(i+1) * 1e-3
		wt.Lat = append(wt.Lat, []float64{base, base * 0.75})
		wt.Item = append(wt.Item, []float64{base * 0.5, base * 0.25})
		wt.Energy = append(wt.Energy, []float64{base * 2, base})
	}
	return wt
}

func encodeWire(t testing.TB, wt wireTable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&wt); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corruptStreams are the streams Decode must refuse, by the name of the
// fuzz corpus seed that holds the same bytes. The first four, and the
// two missing matrices, used to panic or decode into a table nothing
// downstream could use.
func corruptStreams(t testing.TB, s *supernet.SuperNet, fr []*supernet.SubNet) map[string][]byte {
	mutate := func(f func(wt *wireTable)) []byte {
		wt := validWire(s, fr)
		f(&wt)
		return encodeWire(t, wt)
	}
	setCell := func(v float64) func(*wireTable) {
		return func(wt *wireTable) { wt.Lat[1][1] = v }
	}
	whole := encodeWire(t, validWire(s, fr))
	return map[string][]byte{
		"more-cell-lists-than-graph-names": mutate(func(wt *wireTable) {
			wt.GraphCells = append(wt.GraphCells, []int{3})
		}),
		"zero-rows-one-graph": mutate(func(wt *wireTable) {
			wt.SubNetNames, wt.Lat, wt.Item, wt.Energy = nil, nil, nil, nil
			wt.GraphNames, wt.GraphCells = wt.GraphNames[:1], wt.GraphCells[:1]
		}),
		"zero-columns": mutate(func(wt *wireTable) {
			wt.GraphNames, wt.GraphCells = nil, nil
			for i := range wt.Lat {
				wt.Lat[i], wt.Item[i], wt.Energy[i] = nil, nil, nil
			}
		}),
		"duplicate-row-name": mutate(func(wt *wireTable) {
			wt.SubNetNames[2] = wt.SubNetNames[1]
		}),
		"unknown-row-name": mutate(func(wt *wireTable) {
			wt.SubNetNames[0] = "no-such-subnet"
		}),
		"truncated-stream":  whole[:len(whole)/2],
		"cell-nan":          mutate(setCell(math.NaN())),
		"cell-negative":     mutate(setCell(-1e-3)),
		"cell-inf":          mutate(setCell(math.Inf(1))),
		"ragged-lat-matrix": mutate(func(wt *wireTable) { wt.Lat[3] = wt.Lat[3][:1] }),
		"item-matrix-short": mutate(func(wt *wireTable) { wt.Item = wt.Item[:2] }),
		// MIN_ENERGY indexes Energy, and batching Item, for every row.
		"item-matrix-missing":   mutate(func(wt *wireTable) { wt.Item = nil }),
		"energy-matrix-missing": mutate(func(wt *wireTable) { wt.Energy = nil }),
		"cell-id-out-of-range": mutate(func(wt *wireTable) {
			wt.GraphCells[0] = append(wt.GraphCells[0], wt.NumCells)
		}),
		"cell-id-negative":  mutate(func(wt *wireTable) { wt.GraphCells[1][0] = -1 }),
		"numcells-mismatch": mutate(func(wt *wireTable) { wt.NumCells++ }),
	}
}

// TestDecodeRejectsCorruptStreams: a table file is outside input
// (sushi-server -table), so every corrupt stream is an ordinary error
// and never a panic or a table with no rows or columns.
func TestDecodeRejectsCorruptStreams(t *testing.T) {
	s, fr := wireFixture(t)
	tab, err := Decode(bytes.NewReader(encodeWire(t, validWire(s, fr))), s, fr)
	if err != nil {
		t.Fatalf("valid stream refused: %v", err)
	}
	checkOrderingInvariants(t, tab, "valid stream")
	for name, stream := range corruptStreams(t, s, fr) {
		tab, err := Decode(bytes.NewReader(stream), s, fr)
		if err == nil {
			t.Errorf("%s: decoded into a %dx%d table, want an error", name, tab.Rows(), tab.Cols())
		}
		if _, err := os.Stat(filepath.Join("testdata", "fuzz", "FuzzTableDecode", name)); err != nil {
			t.Errorf("%s: no fuzz corpus seed of that name: %v", name, err)
		}
	}
}

// CheckDecoded fails t unless a decoded table is non-empty and answers
// both selections, solo and batched, as the row scans do. It is exported
// for FuzzTableDecode, which lives outside the package to import sched.
func CheckDecoded(t *testing.T, tab *Table) {
	if tab.Rows() == 0 || tab.Cols() == 0 {
		t.Fatalf("decoded an empty %dx%d table", tab.Rows(), tab.Cols())
	}
	for j := 0; j < tab.Cols(); j++ {
		i := j % tab.Rows()
		for _, n := range []int{1, 4} {
			acc, lat := tab.SubNets[i].Accuracy, tab.LookupBatch(i, j, n)
			gi, gf := tab.FastestFeasibleBatch(acc, j, n)
			if wi, wf := scanFastestFeasible(tab, acc, j, n); gi != wi || gf != wf {
				t.Fatalf("FastestFeasibleBatch(%v, %d, %d) = (%d,%v), scan (%d,%v)", acc, j, n, gi, gf, wi, wf)
			}
			gi, gf = tab.MostAccurateWithinBatch(lat, j, n)
			if wi, wf := scanMostAccurateWithin(tab, lat, j, n); gi != wi || gf != wf {
				t.Fatalf("MostAccurateWithinBatch(%v, %d, %d) = (%d,%v), scan (%d,%v)", lat, j, n, gi, gf, wi, wf)
			}
		}
	}
}
