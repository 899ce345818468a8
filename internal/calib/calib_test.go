package calib

import (
	"bytes"
	"strings"
	"testing"

	"sushi/internal/latencytable"
	"sushi/internal/supernet"
)

// tinyFixture builds a small real grid: the two smallest frontier
// SubNets of MobileNetV3 against the cold column and the smallest
// SubNet's own coverage.
func tinyFixture(t testing.TB) (*supernet.SuperNet, []*supernet.SubNet, []*supernet.SubGraph) {
	t.Helper()
	s := supernet.NewOFAMobileNetV3()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	subnets := fr[:2]
	cover := fr[0].Graph.Clone()
	cover.SetName("cover-A")
	graphs := []*supernet.SubGraph{supernet.NewSubGraph(s, "empty"), cover}
	return s, subnets, graphs
}

// zeros is a 2x2 Item or Energy matrix for the fixture's tables that
// leave it unmeasured.
func zeros() [][]float64 { return [][]float64{{0, 0}, {0, 0}} }

// TestSweepTinyGrid runs a real (2 subnets x 2 graphs x 2 batches)
// sweep through the fast engine and pins the structural invariants of
// the measurement: positive latencies, the cold column paying a strict
// weight-fetch premium over a covering column, a non-negative per-item
// slope, and the derived table answering scheduler queries.
func TestSweepTinyGrid(t *testing.T) {
	s, subnets, graphs := tinyFixture(t)
	f, err := Sweep(s, subnets, graphs, Options{
		Reps: 1, Batches: []int{1, 2}, Seed: 1, CalibNs: 1, Workload: "mobilenetv3",
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindMeasured || f.CalibNs != 1 || f.Reps != 1 {
		t.Fatalf("file metadata: kind %q calib_ns %d reps %d", f.Kind, f.CalibNs, f.Reps)
	}
	if len(f.WallNs) != 2 || len(f.WallNs[0]) != 2 || len(f.WallNs[0][0]) != 2 {
		t.Fatalf("WallNs grid %dx%dx%d, want 2x2x2", len(f.WallNs), len(f.WallNs[0]), len(f.WallNs[0][0]))
	}
	tab, err := f.Table(s, subnets)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tab.Rows(); i++ {
		for j := 0; j < tab.Cols(); j++ {
			if tab.Lat[i][j] <= 0 {
				t.Errorf("Lat[%d][%d] = %g, want > 0", i, j, tab.Lat[i][j])
			}
			if tab.Item[i][j] < 0 {
				t.Errorf("Item[%d][%d] = %g, want >= 0", i, j, tab.Item[i][j])
			}
		}
	}
	// Column 1 covers subnet 0's whole SubGraph; the cold column 0
	// pays its full weight fetch on top of identical compute.
	if tab.Lat[0][0] <= tab.Lat[0][1] {
		t.Errorf("cold column %.3gs not slower than covering column %.3gs", tab.Lat[0][0], tab.Lat[0][1])
	}
	if row, ok := tab.MostAccurateWithin(tab.Lat[1][1]+1, 1); !ok || row != 1 {
		t.Errorf("MostAccurateWithin over measured table: row %d feasible %v, want 1 true", row, ok)
	}
}

// TestFileRoundTrip pins the lossless analytic round trip: an analytic
// table wrapped by FromTable, written and read back, decodes to
// bit-identical matrices.
func TestFileRoundTrip(t *testing.T) {
	s, subnets, graphs := tinyFixture(t)
	lat := [][]float64{{3e-3, 1e-3}, {5e-3, 4.5e-3}}
	item := [][]float64{{1e-4, 1e-4}, {2.5e-4, 2.5e-4}}
	energy := [][]float64{{0.1, 0.05}, {0.2, 0.18}}
	orig, err := latencytable.FromMatrices(subnets, graphs, lat, item, energy)
	if err != nil {
		t.Fatal(err)
	}
	f, err := FromTable(orig, "mobilenetv3")
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindAnalytic {
		t.Fatalf("kind %q, want %q", f.Kind, KindAnalytic)
	}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := back.Table(s, subnets)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lat {
		for j := range lat[i] {
			if tab.Lat[i][j] != lat[i][j] || tab.Item[i][j] != item[i][j] || tab.Energy[i][j] != energy[i][j] {
				t.Fatalf("cell (%d,%d) not bit-identical after round trip", i, j)
			}
		}
	}
	if tab.SubNets[0] != subnets[0] {
		t.Fatal("decoded rows not bound to the supplied subnets")
	}
}

// TestValidateRejects pins the envelope validation errors.
func TestValidateRejects(t *testing.T) {
	_, subnets, graphs := tinyFixture(t)
	tab, err := latencytable.FromMatrices(subnets, graphs,
		[][]float64{{1, 1}, {1, 1}}, zeros(), zeros())
	if err != nil {
		t.Fatal(err)
	}
	good, err := FromTable(tab, "mobilenetv3")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*File)
	}{
		{"magic", func(f *File) { f.Magic = "NOTACAL" }},
		{"version", func(f *File) { f.Version = 99 }},
		{"kind", func(f *File) { f.Kind = "vibes" }},
		{"table", func(f *File) { f.TableGob = nil }},
		{"names", func(f *File) { f.SubNetNames = nil }},
		{"wallns-rows", func(f *File) { f.WallNs = [][][]float64{{{1}}} }},
	}
	for _, tc := range cases {
		f := *good
		tc.mutate(&f)
		if err := f.Validate(); err == nil {
			t.Errorf("%s: corrupted file validated", tc.name)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}
}

// TestFromMatricesValidates pins the latencytable-side dimension and
// value checks the measured path relies on.
func TestFromMatricesValidates(t *testing.T) {
	_, subnets, graphs := tinyFixture(t)
	if _, err := latencytable.FromMatrices(subnets, graphs, [][]float64{{1, 1}}, zeros(), zeros()); err == nil {
		t.Error("short Lat accepted")
	}
	if _, err := latencytable.FromMatrices(subnets, graphs, [][]float64{{1}, {1}}, zeros(), zeros()); err == nil {
		t.Error("ragged Lat accepted")
	}
	if _, err := latencytable.FromMatrices(subnets, graphs, [][]float64{{1, -2}, {1, 1}}, zeros(), zeros()); err == nil {
		t.Error("negative latency accepted")
	}
	if _, err := latencytable.FromMatrices(subnets, graphs, [][]float64{{1, 1}, {1, 1}},
		[][]float64{{1, 1}}, zeros()); err == nil {
		t.Error("short Item accepted")
	}
	// A table without Energy used to build, then panic under MIN_ENERGY.
	if _, err := latencytable.FromMatrices(subnets, graphs, [][]float64{{1, 1}, {1, 1}}, zeros(), nil); err == nil {
		t.Error("missing Energy accepted")
	}
}

// TestReport pins the scale fit and the per-cell error distribution: a
// measured table that is exactly 2x the analytic one except for one
// +50% cell reports scale 2 and a max error locating that cell.
func TestReport(t *testing.T) {
	_, subnets, graphs := tinyFixture(t)
	lat := [][]float64{{1e-3, 2e-3}, {3e-3, 4e-3}}
	analytic, err := latencytable.FromMatrices(subnets, graphs, lat, zeros(), zeros())
	if err != nil {
		t.Fatal(err)
	}
	mlat := make([][]float64, len(lat))
	for i := range lat {
		mlat[i] = make([]float64, len(lat[i]))
		for j := range lat[i] {
			mlat[i][j] = 2 * lat[i][j]
		}
	}
	mlat[1][0] *= 1.5
	measured, err := latencytable.FromMatrices(subnets, graphs, mlat, zeros(), zeros())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReport(measured, analytic)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scale != 2 {
		t.Errorf("scale %g, want 2", rep.Scale)
	}
	if rep.MaxErr < 0.49 || rep.MaxErr > 0.51 || rep.WorstRow != 1 || rep.WorstCol != 0 {
		t.Errorf("max error %.3f at (%d,%d), want ~0.50 at (1,0)", rep.MaxErr, rep.WorstRow, rep.WorstCol)
	}
	if rep.P50Err != 0 {
		t.Errorf("p50 error %.3f, want 0 (three of four cells are exact)", rep.P50Err)
	}
	if !strings.Contains(rep.String(), "calibration report") {
		t.Error("String() missing headline")
	}
}

// TestWriteCSV pins the companion CSV shape.
func TestWriteCSV(t *testing.T) {
	s, subnets, graphs := tinyFixture(t)
	f, err := Sweep(s, subnets[:1], graphs[:1], Options{
		Reps: 1, Batches: []int{1}, Seed: 1, CalibNs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header comment + column row + 1 cell:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "# SUSHICAL v1 kind=measured") {
		t.Errorf("header comment %q", lines[0])
	}
	if lines[1] != "subnet,graph,batch,wall_ns" {
		t.Errorf("column row %q", lines[1])
	}
}
