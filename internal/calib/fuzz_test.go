package calib

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sushi/internal/latencytable"
)

// envelopeSeeds are the SUSHICAL streams of the fuzz corpus, by the
// name of the seed file that holds the same bytes: the two Read must
// accept ("valid-…": an analytic table wrapped by FromTable, and a
// measured file over the same 2x2 grid with three batch sizes) and one
// corruption of them per rule Read enforces.
func envelopeSeeds(t testing.TB) map[string][]byte {
	_, subnets, graphs := tinyFixture(t)
	tab, err := latencytable.FromMatrices(subnets, graphs,
		[][]float64{{3e-3, 1e-3}, {5e-3, 4.5e-3}}, [][]float64{{1e-4, 1e-4}, {2.5e-4, 2.5e-4}}, zeros())
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := FromTable(tab, "mobilenetv3")
	if err != nil {
		t.Fatal(err)
	}
	measured, err := newFile(tab, KindMeasured, "mobilenetv3", 41_000_000, 5, 7, []int{1, 2, 4}, 0.31, [][][]float64{
		{{3.0e6, 3.2e6, 3.6e6}, {1.0e6, 1.2e6, 1.6e6}},
		{{5.0e6, 5.5e6, 6.5e6}, {4.5e6, 5.0e6, 6.0e6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Write validates first, so corrupt files go through gob directly.
	encode := func(f *File) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(f); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	mutate := func(f func(*File)) []byte {
		cp := *measured
		cp.WallNs = [][][]float64{
			{append([]float64(nil), measured.WallNs[0][0]...), append([]float64(nil), measured.WallNs[0][1]...)},
			{append([]float64(nil), measured.WallNs[1][0]...), append([]float64(nil), measured.WallNs[1][1]...)},
		}
		f(&cp)
		return encode(&cp)
	}
	whole := encode(measured)
	return map[string][]byte{
		"valid-analytic":      encode(analytic),
		"valid-measured":      whole,
		"bad-magic":           mutate(func(f *File) { f.Magic = "SUSHICAT" }),
		"future-version":      mutate(func(f *File) { f.Version = Version + 1 }),
		"empty-table-gob":     mutate(func(f *File) { f.TableGob = nil }),
		"ragged-wallns":       mutate(func(f *File) { f.WallNs[1][0] = f.WallNs[1][0][:2] }),
		"wallns-cell-inf":     mutate(func(f *File) { f.WallNs[0][1][2] = math.Inf(1) }),
		"batches-empty":       mutate(func(f *File) { f.Batches = nil }),
		"batches-descending":  mutate(func(f *File) { f.Batches = []int{1, 4, 2} }),
		"batches-start-at-2":  mutate(func(f *File) { f.Batches = []int{2, 4, 8} }),
		"fetch-cost-nan":      mutate(func(f *File) { f.FetchNsPerByte = math.NaN() }),
		"fetch-cost-negative": mutate(func(f *File) { f.FetchNsPerByte = -0.31 }),
		"negative-calib-ns":   mutate(func(f *File) { f.CalibNs = -1 }),
		"negative-reps":       mutate(func(f *File) { f.Reps = -5 }),
		"truncated-stream":    whole[:len(whole)/2],
	}
}

// TestReadRejectsCorruptEnvelopes: a calibration file is outside input
// (sushi-server -table), so every corrupt envelope is an ordinary error,
// and each has its seed in the committed fuzz corpus.
func TestReadRejectsCorruptEnvelopes(t *testing.T) {
	for name, stream := range envelopeSeeds(t) {
		_, err := Read(bytes.NewReader(stream))
		if accept := strings.HasPrefix(name, "valid-"); accept && err != nil {
			t.Errorf("%s: refused: %v", name, err)
		} else if !accept && err == nil {
			t.Errorf("%s: accepted, want an error", name)
		}
		if _, err := os.Stat(filepath.Join("testdata", "fuzz", "FuzzCalibRead", name)); err != nil {
			t.Errorf("%s: no fuzz corpus seed of that name: %v", name, err)
		}
	}
}

// FuzzCalibRead feeds Read arbitrary bytes. It must never panic, and a
// file it accepts must be one the rest of the package can rely on: it
// passes Validate, Write takes it, and reading that back gives an equal
// value. The committed corpus (testdata/fuzz/FuzzCalibRead) is every
// entry of envelopeSeeds.
func FuzzCalibRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := file.Validate(); err != nil {
			t.Fatalf("Read accepted a file Validate refuses: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, file); err != nil {
			t.Fatalf("accepted file does not re-encode: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-encoded file does not read back: %v", err)
		}
		if !reflect.DeepEqual(back, file) {
			t.Fatalf("round trip changed the file:\n%+v\n%+v", file, back)
		}
	})
}
