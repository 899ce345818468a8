package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// sampleTrace records a small skewed population — cohort table, mixed
// models/classes, empirical marks — the richest shape the format
// carries.
func sampleTrace(t *testing.T, n int) *TraceV2 {
	t.Helper()
	pop := Population{Cohorts: []Cohort{
		{Rate: 60, SLOClass: "gold", Model: "resnet50",
			Budget: Empirical{Values: []float64{10e-3, 20e-3}}},
		{Rate: 30, SLOClass: "batch", Model: "mobilenetv3", InterArrival: IAGamma, Shape: 0.4,
			Budget: Empirical{Values: []float64{80e-3}}, Accuracy: Empirical{Values: []float64{65, 70}}},
		{Rate: 10, InterArrival: IAWeibull, Shape: 0.7},
	}}
	tr, err := pop.Record(n, 23)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTraceV2RoundTrip is the format's core contract: decode(encode(t))
// is deep-equal, including IEEE-754-exact floats and the cohort table.
func TestTraceV2RoundTrip(t *testing.T) {
	tr := sampleTrace(t, 400)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTraceV2(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("decode(encode(t)) is not deep-equal to t")
	}
	// Re-encoding the decoded trace must reproduce identical bytes
	// (stable interning order).
	var buf2 bytes.Buffer
	if err := got.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-encode is not byte-identical")
	}
	// The replay faces agree with the recorded content.
	qs, err := got.Queries(len(got.Records))
	if err != nil {
		t.Fatal(err)
	}
	times, err := got.Times(len(got.Records), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range tr.Records {
		if qs[i].ID != i || qs[i].Model != r.Model || qs[i].Class != r.Class ||
			qs[i].MaxLatency != r.MaxLatency || qs[i].MinAccuracy != r.MinAccuracy ||
			times[i] != r.Arrival {
			t.Fatalf("replay record %d mismatch: %+v vs %+v", i, qs[i], r)
		}
	}
}

// TestTraceV2VersionMismatch: a foreign version is a *TraceVersionError
// carrying the declared version, not a generic decode failure.
func TestTraceV2VersionMismatch(t *testing.T) {
	tr := sampleTrace(t, 5)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint16(raw[8:10], 3) // version follows the 8-byte magic
	_, err := DecodeTraceV2(bytes.NewReader(raw))
	var verr *TraceVersionError
	if !errors.As(err, &verr) {
		t.Fatalf("got %v, want *TraceVersionError", err)
	}
	if verr.Got != 3 {
		t.Errorf("declared version %d, want 3", verr.Got)
	}
}

// TestTraceV2Truncation: cutting the stream at EVERY byte boundary
// yields a typed *TraceDecodeError wrapping io.ErrUnexpectedEOF —
// never a panic, never success.
func TestTraceV2Truncation(t *testing.T) {
	tr := sampleTrace(t, 20)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		_, err := DecodeTraceV2(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d of %d decoded successfully", cut, len(raw))
		}
		var derr *TraceDecodeError
		if !errors.As(err, &derr) {
			t.Fatalf("truncation at %d: got %v, want *TraceDecodeError", cut, err)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d does not wrap io.ErrUnexpectedEOF: %v", cut, err)
		}
	}
}

// TestTraceV2MalformedContent drives the content validators: bad
// magic, corrupt counts, out-of-range indexes and non-finite floats
// all surface as typed errors with a useful offset.
func TestTraceV2MalformedContent(t *testing.T) {
	tr := sampleTrace(t, 10)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := func(mutate func(b []byte)) error {
		b := append([]byte(nil), good...)
		mutate(b)
		_, err := DecodeTraceV2(bytes.NewReader(b))
		return err
	}
	cases := []struct {
		name   string
		mutate func(b []byte)
	}{
		{"bad magic", func(b []byte) { b[0] = 'X' }},
		{"arrival NaN", func(b []byte) {
			// The first record's arrival is the first u64 after the string
			// table; flipping it to NaN must be caught. Locate it by
			// re-encoding structure: simpler to smash the last 8 bytes of a
			// record field with NaN bits somewhere past the header.
			binary.LittleEndian.PutUint64(b[len(b)-8:], math.Float64bits(math.NaN()))
		}},
	}
	for _, tc := range cases {
		err := corrupt(tc.mutate)
		var derr *TraceDecodeError
		if !errors.As(err, &derr) {
			t.Errorf("%s: got %v, want *TraceDecodeError", tc.name, err)
		}
	}
	// Validation also guards the in-memory faces: empty traces, bad
	// order, rogue cohort indexes.
	for _, bad := range []*TraceV2{
		{},
		{Records: []TraceV2Record{{Arrival: -1}}},
		{Records: []TraceV2Record{{Arrival: 1}, {Arrival: 0.5}}},
		{Records: []TraceV2Record{{Arrival: math.Inf(1)}}},
		{Records: []TraceV2Record{{Cohort: 2}}},
		{Records: []TraceV2Record{{Cohort: -2}}},
		{Records: []TraceV2Record{{MaxLatency: math.NaN()}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid trace %+v accepted", bad)
		}
		var buf bytes.Buffer
		if err := bad.Encode(&buf); err == nil {
			t.Errorf("invalid trace %+v encoded", bad)
		}
	}
}

// FuzzTraceV2Decode is the decoder's adversarial-input gate: any byte
// string either decodes to a trace that re-encodes and re-decodes
// cleanly, or fails with one of the two typed errors. Panics and
// untyped errors are bugs.
func FuzzTraceV2Decode(f *testing.F) {
	// Seed with a valid trace, a version mismatch, bare magic, and junk.
	pop := Population{Cohorts: []Cohort{
		{Rate: 50, SLOClass: "gold", Budget: Empirical{Values: []float64{5e-3}}},
		{Rate: 20, InterArrival: IAGamma, Shape: 0.5, Model: "resnet50"},
	}}
	tr, err := pop.Record(30, 7)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	versioned := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(versioned[8:10], 9)
	f.Add(versioned)
	f.Add([]byte("SUSHITR2"))
	f.Add([]byte{})
	f.Add([]byte("not a trace at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeTraceV2(bytes.NewReader(data))
		if err != nil {
			var derr *TraceDecodeError
			var verr *TraceVersionError
			if !errors.As(err, &derr) && !errors.As(err, &verr) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// A successful decode passed Encode's validation, so it must
		// re-encode and round-trip.
		var out bytes.Buffer
		if err := got.Encode(&out); err != nil {
			t.Fatalf("decoded trace does not re-encode: %v", err)
		}
		again, err := DecodeTraceV2(&out)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatal("re-encode round-trip diverged")
		}
	})
}
