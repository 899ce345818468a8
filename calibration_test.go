package sushi_test

// End-to-end pins for the measured-table loading path (PR 10): an
// analytic table pushed through the on-disk calibration envelope must
// come back bit for bit and serve bit-identically to the in-memory
// deployment, and a genuinely MEASURED sweep written by Calibrate must
// be loadable from disk and servable interchangeably with the analytic
// model. A table is supplied through ClusterOptions.Table, the field
// sushi-server -table sets.

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"sushi"
	"sushi/internal/core"
	"sushi/internal/latencytable"
)

// withTable serves the whole fleet from t instead of an analytic table.
func withTable(t *latencytable.Table) sushi.ClusterOption {
	return func(o *core.ClusterOptions) { o.Table = t }
}

// TestAnalyticTableDiskRoundTripBitIdentical is the golden identity
// pin: wrap the deployment's own analytic MobileNetV3 table in the
// measured-file envelope, write it to disk, load it back through the
// sushi-server -table decoder, and replay the pinned
// homogeneous-mbv3-degrade run serving FROM THE FILE. The PR-5 digest
// must hold — proving the envelope is lossless and the
// ClusterOptions.Table path changes nothing but the table's origin.
func TestAnalyticTableDiskRoundTripBitIdentical(t *testing.T) {
	probe, err := sushi.NewCluster(sushi.Options{Workload: sushi.MobileNetV3},
		sushi.WithReplicas(4))
	if err != nil {
		t.Fatal(err)
	}
	analytic := sushi.ClusterTableForTest(probe)
	path := filepath.Join(t.TempDir(), "mbv3-analytic.sushical")
	loaded, err := sushi.AnalyticRoundTripForTest(analytic, sushi.MobileNetV3, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Lat, analytic.Lat) ||
		!reflect.DeepEqual(loaded.Item, analytic.Item) ||
		!reflect.DeepEqual(loaded.Energy, analytic.Energy) {
		t.Fatal("disk round trip perturbed the table matrices")
	}

	ir := identityRuns[0]
	if ir.name != "homogeneous-mbv3-degrade" {
		t.Fatalf("identityRuns[0] is %q, the pin expects homogeneous-mbv3-degrade", ir.name)
	}
	got := outcomeDigest(t, ir.run(t, withTable(loaded)))
	if got != ir.golden {
		t.Errorf("serving from the round-tripped table diverged from the pin:\n  got    %s\n  golden %s", got, ir.golden)
	}
}

// TestDeployClusterServesFromMeasuredFile is the measured half: run a
// real calibration sweep (actual int8 forwards through the fast
// engine) over the full MobileNetV3 frontier, write the table, load it
// from disk and boot a cluster that schedules from the measured
// numbers. Guarded by -short — the sweep forwards every frontier
// SubNet at two batch sizes.
func TestDeployClusterServesFromMeasuredFile(t *testing.T) {
	if testing.Short() {
		t.Skip("real calibration sweep (skipped with -short)")
	}
	if raceEnabled {
		t.Skip("real calibration sweep (minutes under the race detector; kernels have dedicated race coverage)")
	}
	f, rep, err := sushi.Calibrate(sushi.CalibrateOptions{
		Workload: sushi.MobileNetV3,
		Reps:     1,
		Batches:  []int{1, 2},
		Cols:     2,
		CalibNs:  1, // skip the spin; wall-clock accuracy is not under test
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Scale <= 0 {
		t.Fatalf("calibration report missing or degenerate: %+v", rep)
	}
	path := filepath.Join(t.TempDir(), "mbv3-measured.sushical")
	if err := sushi.WriteCalibrationFile(path, f); err != nil {
		t.Fatal(err)
	}
	tab, w, err := core.LoadTableFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if w != sushi.MobileNetV3 {
		t.Fatalf("loaded workload %q, want %q", w, sushi.MobileNetV3)
	}

	c, err := sushi.NewCluster(sushi.Options{Workload: w},
		sushi.WithReplicas(2), withTable(tab))
	if err != nil {
		t.Fatal(err)
	}
	if got := sushi.ClusterTableForTest(c); !reflect.DeepEqual(got.Lat, tab.Lat) {
		t.Fatal("cluster is not deciding from the measured table")
	}
	qs, err := sushi.UniformWorkload(40,
		sushi.Range{Lo: 60, Hi: 80}, sushi.Range{Lo: 1e-3, Hi: 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.ServeAll(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 40 {
		t.Fatalf("served %d of 40", len(rs))
	}
	for i, r := range rs {
		if r.SubNet == "" {
			t.Fatalf("query %d served no SubNet: %+v", i, r)
		}
	}
}
