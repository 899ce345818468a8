// Package calib closes the model-vs-machine gap of the analytic
// SushiAbs tables: it executes real SubNets through the fast infer
// engine and derives a MEASURED (frontier SubNet × SubGraph column ×
// batch size) latency table — the offline-benchmark → cheat-sheet →
// runtime-lookup pattern. A sweep times each row's forward pass at
// every batch size (median of k repetitions, wall nanoseconds), probes
// the machine's copy bandwidth to price each column's weight-cache
// miss, and assembles a latencytable.Table interchangeable with the
// analytic ones the scheduler normally builds. The result travels in a
// versioned on-disk envelope (see File) with the raw per-cell evidence
// and a calib_ns machine yardstick embedded, and NewReport quantifies
// the per-cell predicted-vs-measured error against an analytic table.
package calib

import (
	"fmt"
	"sort"
	"time"

	"sushi/internal/infer"
	"sushi/internal/latencytable"
	"sushi/internal/supernet"
	"sushi/internal/tensor"
)

// Options configures Sweep.
type Options struct {
	// Reps is the number of timed repetitions per (row, batch) cell;
	// the median is kept (default 3).
	Reps int
	// Batches are the measured batch sizes, strictly ascending and
	// starting at 1 — batch 1 anchors Lat, the span anchors the
	// per-item slope Item (default [1, 2, 4]).
	Batches []int
	// Seed drives the deterministic weight store and input images
	// (default 1).
	Seed int64
	// CalibNs pre-supplies the machine yardstick; 0 runs CalibSpin.
	CalibNs int64
	// Workload labels the file ("resnet50", "mobilenetv3").
	Workload string
}

func (o *Options) normalize() error {
	if o.Reps <= 0 {
		o.Reps = 3
	}
	if len(o.Batches) == 0 {
		o.Batches = []int{1, 2, 4}
	}
	if o.Batches[0] != 1 {
		return fmt.Errorf("calib: batches must start at 1, got %v", o.Batches)
	}
	for i := 1; i < len(o.Batches); i++ {
		if o.Batches[i] <= o.Batches[i-1] {
			return fmt.Errorf("calib: batches must be strictly ascending, got %v", o.Batches)
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return nil
}

// calibSink defeats dead-code elimination of the calibration spin.
var calibSink uint64

// CalibSpin times the standard fixed arithmetic spin (the same
// xorshift loop sushi-bench embeds in every record) and returns its
// wall nanoseconds — the machine yardstick that makes measured tables
// comparable across hosts.
func CalibSpin() int64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 200_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(start).Nanoseconds()
}

// median returns the middle element of v after sorting it in place
// (the lower middle for even lengths — deterministic, outlier-robust).
func median(v []float64) float64 {
	sort.Float64s(v)
	return v[(len(v)-1)/2]
}

// slope fits the least-squares per-item increment of y over the batch
// sizes b, clamped to be non-negative (a noisy sweep must never yield
// batches that get cheaper per item than free).
func slope(b []int, y []float64) float64 {
	if len(b) < 2 {
		return 0
	}
	var mb, my float64
	for i := range b {
		mb += float64(b[i])
		my += y[i]
	}
	mb /= float64(len(b))
	my /= float64(len(b))
	var num, den float64
	for i := range b {
		d := float64(b[i]) - mb
		num += d * (y[i] - my)
		den += d * d
	}
	if den == 0 || num < 0 {
		return 0
	}
	return num / den
}

// fetchProbeBytes sizes the copy-bandwidth probe: large enough to
// stream past the L1/L2 caches, small enough to run in microseconds.
const fetchProbeBytes = 4 << 20

// fetchNsPerByte measures the machine's sustained copy cost — the
// proxy for moving a weight byte that the cached SubGraph does not
// cover. Median of reps timed copies of a fixed buffer.
func fetchNsPerByte(reps int) float64 {
	src := make([]byte, fetchProbeBytes)
	dst := make([]byte, fetchProbeBytes)
	for i := range src {
		src[i] = byte(i)
	}
	times := make([]float64, reps)
	for r := range times {
		start := time.Now()
		copy(dst, src)
		times[r] = float64(time.Since(start).Nanoseconds())
	}
	calibSink += uint64(dst[len(dst)-1])
	return median(times) / float64(fetchProbeBytes)
}

// Sweep measures the (subnet × graph × batch) grid through the fast
// engine and returns the versioned file holding the raw evidence and
// the derived latency table.
//
// The measurement decomposes each cell: the compute component is the
// median-of-reps wall time of one ForwardBatchInto per (row, batch) —
// it does not depend on the cached column — and the weight-fetch
// component prices the bytes of the row's SubGraph that column j does
// not cover at the probed copy bandwidth, paid once per batch. So
//
//	WallNs[i][j][b] = computeNs[i][b] + missBytes(i,j) · fetchNsPerByte
//
// Lat is the batch-1 cell in seconds, Item the per-item slope of the
// compute component over the batch axis. Energy is not measurable in
// software and is recorded as zero.
func Sweep(super *supernet.SuperNet, subnets []*supernet.SubNet, graphs []*supernet.SubGraph, opt Options) (*File, error) {
	if super == nil {
		return nil, fmt.Errorf("calib: nil supernet")
	}
	if len(subnets) == 0 {
		return nil, fmt.Errorf("calib: no subnets")
	}
	if len(graphs) == 0 {
		return nil, fmt.Errorf("calib: no graphs")
	}
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	calibNs := opt.CalibNs
	if calibNs <= 0 {
		calibNs = CalibSpin()
	}
	eng := infer.NewEngine(infer.NewWeightStore(super, uint64(opt.Seed)))
	defer eng.Close()

	// Column-independent compute times: one (row, batch) measurement
	// reused across every column.
	computeNs := make([][]float64, len(subnets))
	reps := make([]float64, opt.Reps)
	var in, out tensor.Int8
	for i, sn := range subnets {
		computeNs[i] = make([]float64, len(opt.Batches))
		first := sn.Model.Layers[0]
		tensor.EnsureInt8(&in, tensor.Shape{N: 1, C: first.C, H: first.InH, W: first.InW})
		tensor.FillRandom(&in, uint64(opt.Seed)+uint64(i)*0x9e3779b9)
		for bi, b := range opt.Batches {
			// Warm run sizes the arena and materializes the prepared
			// weights so the timed runs measure steady state.
			if err := eng.ForwardBatchInto(sn, &in, b, &out); err != nil {
				return nil, fmt.Errorf("calib: row %d (%s) batch %d: %w", i, sn.Name, b, err)
			}
			for r := range reps {
				start := time.Now()
				if err := eng.ForwardBatchInto(sn, &in, b, &out); err != nil {
					return nil, fmt.Errorf("calib: row %d (%s) batch %d: %w", i, sn.Name, b, err)
				}
				reps[r] = float64(time.Since(start).Nanoseconds())
			}
			computeNs[i][bi] = median(reps)
		}
	}
	fetch := fetchNsPerByte(opt.Reps)

	lat := make([][]float64, len(subnets))
	item := make([][]float64, len(subnets))
	energy := make([][]float64, len(subnets))
	wallNs := make([][][]float64, len(subnets))
	for i, sn := range subnets {
		lat[i] = make([]float64, len(graphs))
		item[i] = make([]float64, len(graphs))
		energy[i] = make([]float64, len(graphs))
		wallNs[i] = make([][]float64, len(graphs))
		itemSec := slope(opt.Batches, computeNs[i]) / 1e9
		for j, g := range graphs {
			miss := float64(sn.Graph.Bytes() - sn.Graph.IntersectBytes(g))
			if miss < 0 {
				miss = 0
			}
			fetchNs := miss * fetch
			wallNs[i][j] = make([]float64, len(opt.Batches))
			for bi := range opt.Batches {
				wallNs[i][j][bi] = computeNs[i][bi] + fetchNs
			}
			lat[i][j] = wallNs[i][j][0] / 1e9
			item[i][j] = itemSec
		}
	}
	table, err := latencytable.FromMatrices(subnets, graphs, lat, item, energy)
	if err != nil {
		return nil, err
	}
	return newFile(table, KindMeasured, opt.Workload, calibNs, opt.Reps, opt.Seed, opt.Batches, fetch, wallNs)
}
