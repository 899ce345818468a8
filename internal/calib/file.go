package calib

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"sushi/internal/latencytable"
	"sushi/internal/supernet"
)

// On-disk envelope identity. Version gates decoding: a future format
// bump is a typed refusal here, never a silent misread.
const (
	// Magic identifies a calibration table stream.
	Magic = "SUSHICAL"
	// Version is the current envelope version.
	Version = 1
	// KindMeasured marks tables swept on real executions.
	KindMeasured = "measured"
	// KindAnalytic marks analytic tables round-tripped through the
	// measured format (FromTable) — byte-for-byte the same latency
	// matrices, so deployments over them are bit-identical.
	KindAnalytic = "analytic"
)

// File is the versioned on-disk calibration table: provenance metadata
// (workload, seed, repetitions, the calib_ns machine yardstick and the
// probed fetch bandwidth), the raw per-cell wall-ns evidence, and the
// authoritative latency table embedded as its own wire stream — so the
// matrices ride latencytable's gob encoding losslessly and decode
// through the exact validation analytic tables use.
type File struct {
	// Magic must equal the package Magic constant.
	Magic string
	// Version is the envelope version (currently 1).
	Version int
	// Kind is KindMeasured or KindAnalytic.
	Kind string
	// Workload names the SuperNet family the table was built for.
	Workload string
	// CalibNs is the standard-spin wall time on the measuring machine
	// (0 for analytic files — no machine was measured).
	CalibNs int64
	// Reps is the repetitions each cell's median was taken over.
	Reps int
	// Seed drove the weight store and input images.
	Seed int64
	// Batches are the measured batch sizes (ascending, starting at 1).
	Batches []int
	// FetchNsPerByte is the probed copy cost pricing cache misses.
	FetchNsPerByte float64
	// SubNetNames and GraphNames label the rows/columns for CSV and
	// reports without needing a SuperNet to decode against.
	SubNetNames []string
	GraphNames  []string
	// WallNs[i][j][b] is the raw measured wall-ns evidence per
	// (row, column, batch index); nil for analytic files.
	WallNs [][][]float64
	// TableGob is the embedded latencytable wire stream — the
	// authoritative Lat/Item/Energy matrices.
	TableGob []byte
}

// newFile wraps a built table into the envelope.
func newFile(t *latencytable.Table, kind, workload string, calibNs int64, repsN int, seed int64, batches []int, fetch float64, wallNs [][][]float64) (*File, error) {
	var buf bytes.Buffer
	if err := t.Encode(&buf); err != nil {
		return nil, fmt.Errorf("calib: encode table: %w", err)
	}
	f := &File{
		Magic:          Magic,
		Version:        Version,
		Kind:           kind,
		Workload:       workload,
		CalibNs:        calibNs,
		Reps:           repsN,
		Seed:           seed,
		Batches:        batches,
		FetchNsPerByte: fetch,
		WallNs:         wallNs,
		TableGob:       buf.Bytes(),
	}
	for _, sn := range t.SubNets {
		f.SubNetNames = append(f.SubNetNames, sn.Name)
	}
	for _, g := range t.Graphs {
		f.GraphNames = append(f.GraphNames, g.Name())
	}
	return f, nil
}

// FromTable wraps an analytic table in the measured envelope without
// touching a single matrix value: the table is re-encoded through its
// own lossless wire format, so a deployment over the round-tripped
// table is bit-identical to one over the original.
func FromTable(t *latencytable.Table, workload string) (*File, error) {
	return newFile(t, KindAnalytic, workload, 0, 0, 0, []int{1}, 0, nil)
}

// Validate checks the envelope's self-consistency.
func (f *File) Validate() error {
	if f.Magic != Magic {
		return fmt.Errorf("calib: bad magic %q (want %q)", f.Magic, Magic)
	}
	if f.Version != Version {
		return fmt.Errorf("calib: file version %d, this build speaks %d", f.Version, Version)
	}
	if f.Kind != KindMeasured && f.Kind != KindAnalytic {
		return fmt.Errorf("calib: unknown kind %q", f.Kind)
	}
	if len(f.TableGob) == 0 {
		return fmt.Errorf("calib: empty embedded table")
	}
	if len(f.SubNetNames) == 0 || len(f.GraphNames) == 0 {
		return fmt.Errorf("calib: missing row/column names")
	}
	if len(f.Batches) == 0 || f.Batches[0] != 1 {
		return fmt.Errorf("calib: batches must start at 1, got %v", f.Batches)
	}
	for i := 1; i < len(f.Batches); i++ {
		if f.Batches[i] <= f.Batches[i-1] {
			return fmt.Errorf("calib: batches must be strictly ascending, got %v", f.Batches)
		}
	}
	if f.CalibNs < 0 || f.Reps < 0 {
		return fmt.Errorf("calib: negative provenance: calib_ns %d, reps %d", f.CalibNs, f.Reps)
	}
	if !finiteNonNeg(f.FetchNsPerByte) {
		return fmt.Errorf("calib: fetch cost %g ns/byte is not a finite non-negative number", f.FetchNsPerByte)
	}
	if f.WallNs != nil {
		if len(f.WallNs) != len(f.SubNetNames) {
			return fmt.Errorf("calib: WallNs has %d rows for %d subnets", len(f.WallNs), len(f.SubNetNames))
		}
		for i, row := range f.WallNs {
			if len(row) != len(f.GraphNames) {
				return fmt.Errorf("calib: WallNs row %d has %d cols for %d graphs", i, len(row), len(f.GraphNames))
			}
			for j, cells := range row {
				if len(cells) != len(f.Batches) {
					return fmt.Errorf("calib: WallNs[%d][%d] has %d cells for %d batches", i, j, len(cells), len(f.Batches))
				}
				for b, ns := range cells {
					if !finiteNonNeg(ns) {
						return fmt.Errorf("calib: WallNs[%d][%d][%d] = %g is not a finite non-negative time", i, j, b, ns)
					}
				}
			}
		}
	}
	return nil
}

// finiteNonNeg reports whether x can be a measured time or cost.
func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Table decodes the embedded latency table over super, matching rows
// to the supplied subnets by name — latencytable.Decode's validation
// (cell-id range, matrix dimensions, finite non-negative values)
// applies unchanged.
func (f *File) Table(super *supernet.SuperNet, subnets []*supernet.SubNet) (*latencytable.Table, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return latencytable.Decode(bytes.NewReader(f.TableGob), super, subnets)
}

// Write serializes the file (gob, validated first).
func Write(w io.Writer, f *File) error {
	if err := f.Validate(); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(f)
}

// Read deserializes and validates one calibration file.
func Read(r io.Reader) (*File, error) {
	var f File
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("calib: decode: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// WriteFile writes the file to path.
func WriteFile(path string, f *File) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(out, f); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// ReadFile reads one calibration file from path.
func ReadFile(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return Read(in)
}

// WriteCSV renders the raw evidence as a human-readable companion:
// header comments carrying the provenance, then one row per
// (subnet, graph, batch) cell. The gob stream stays authoritative —
// the CSV is for inspection and plotting, not for loading back.
func (f *File) WriteCSV(w io.Writer) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "# %s v%d kind=%s workload=%s seed=%d reps=%d calib_ns=%d fetch_ns_per_byte=%g\n",
		f.Magic, f.Version, f.Kind, f.Workload, f.Seed, f.Reps, f.CalibNs, f.FetchNsPerByte); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "subnet,graph,batch,wall_ns"); err != nil {
		return err
	}
	if f.WallNs == nil {
		return nil
	}
	for i, row := range f.WallNs {
		for j, cells := range row {
			for bi, ns := range cells {
				if _, err := fmt.Fprintf(w, "%s,%s,%d,%.0f\n",
					f.SubNetNames[i], f.GraphNames[j], f.Batches[bi], ns); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
