package core

import (
	"fmt"

	"sushi/internal/calib"
	"sushi/internal/latencytable"
	"sushi/internal/sched"
	"sushi/internal/serving"
)

// CalibrateOptions configures Calibrate. Zero values select defaults;
// Rows/Cols caps exist for smoke grids (CI measures a corner of the
// table in seconds instead of the full frontier in minutes).
type CalibrateOptions struct {
	// Workload picks the SuperNet family (default ResNet50).
	Workload Workload
	// Candidates is the analytic candidate count |S| whose SubGraphs
	// become the measured columns (default 16).
	Candidates int
	// Rows caps the measured frontier rows (0 = full frontier; a
	// capped table cannot serve a deployment, only feed a report).
	Rows int
	// Cols caps the measured candidate columns (0 = all).
	Cols int
	// Reps is the median-of-k repetition count (default 3).
	Reps int
	// Batches are the measured batch sizes (default [1, 2, 4]).
	Batches []int
	// Seed drives candidates, weights and inputs (default 1).
	Seed int64
	// Workers bounds the kernel worker pool (0 = GOMAXPROCS).
	Workers int
	// CalibNs pre-supplies the machine yardstick (0 = measure it).
	CalibNs int64
}

// Calibrate sweeps a measured latency table through the fast inference
// engine: it derives the analytic table a deployment would build for
// the workload (same candidate machinery, ZCU104, seeded), times every
// (frontier SubNet × candidate SubGraph × batch) cell on this machine,
// and returns the versioned file plus the predicted-vs-measured report
// against the analytic grid.
func Calibrate(opt CalibrateOptions) (*calib.File, *calib.Report, error) {
	dep := DeployOptions{Workload: opt.Workload, Policy: sched.StrictLatency, Candidates: opt.Candidates, Seed: opt.Seed}
	if err := dep.normalize(); err != nil {
		return nil, nil, err
	}
	w := dep.Workload
	super, frontier, err := frontierFor(w)
	if err != nil {
		return nil, nil, err
	}
	analytic, _, err := serving.BuildTable(super, frontier, dep.servingOptions(dep.accelConfig()))
	if err != nil {
		return nil, nil, err
	}
	rows := frontier
	if opt.Rows > 0 && opt.Rows < len(rows) {
		rows = rows[:opt.Rows]
	}
	graphs := analytic.Graphs
	if opt.Cols > 0 && opt.Cols < len(graphs) {
		graphs = graphs[:opt.Cols]
	}
	f, err := calib.Sweep(super, rows, graphs, calib.Options{
		Reps: opt.Reps, Batches: opt.Batches, Seed: dep.Seed,
		Workers: opt.Workers, CalibNs: opt.CalibNs, Workload: string(w),
	})
	if err != nil {
		return nil, nil, err
	}
	measured, err := f.Table(super, rows)
	if err != nil {
		return nil, nil, err
	}
	// The analytic sub-grid matching the measured rows/columns; the
	// slices share the full table's storage (read-only).
	subLat := make([][]float64, len(rows))
	subItem := make([][]float64, len(rows))
	subEnergy := make([][]float64, len(rows))
	for i := range rows {
		subLat[i] = analytic.Lat[i][:len(graphs)]
		subItem[i] = analytic.Item[i][:len(graphs)]
		subEnergy[i] = analytic.Energy[i][:len(graphs)]
	}
	analyticSub, err := latencytable.FromMatrices(rows, graphs, subLat, subItem, subEnergy)
	if err != nil {
		return nil, nil, err
	}
	rep, err := calib.NewReport(measured, analyticSub)
	if err != nil {
		return nil, nil, err
	}
	return f, rep, nil
}

// LoadTableFile reads a calibration table file (sushi-bench -calibrate
// -table-out) and decodes it against the workload it embeds, returning
// a latency table a deployment serves from via ClusterOptions.Table.
func LoadTableFile(path string) (*latencytable.Table, Workload, error) {
	f, err := calib.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	w := Workload(f.Workload)
	super, frontier, err := frontierFor(w)
	if err != nil {
		return nil, "", fmt.Errorf("core: table file %s names workload %q: %w", path, f.Workload, err)
	}
	t, err := f.Table(super, frontier)
	if err != nil {
		return nil, "", err
	}
	return t, w, nil
}
