package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"sushi/internal/sched"
)

// Trace v2 is the package's one replay format, versioned and
// self-describing: a header carrying the format version, the generating
// seed and the cohort table, then one fixed-shape record per arrival
// with the instant, the producing cohort, the target model, the SLO
// class and the drawn constraint pair. Floats travel as IEEE-754 bits,
// so a recorded simulation replays bit-exactly; strings are interned in
// a table so million-record traces stay compact.
//
// Wire layout (little-endian):
//
//	magic "SUSHITR2" | uint16 version | uint64 seed bits
//	uvarint ncohorts | per cohort: name, model, class (uvarint len + bytes)
//	uvarint nstrings | per string: uvarint len + bytes ("" is index 0)
//	uvarint nrecords | per record:
//	    uint64 arrival bits | varint cohort (-1 = none)
//	    uvarint model index | uvarint class index
//	    uint64 min-accuracy bits | uint64 max-latency bits
//
// Decoding is hardened for adversarial input: every count and string
// length is bounded, truncation and malformed content surface as
// *TraceDecodeError (truncation wraps io.ErrUnexpectedEOF), and a
// version the decoder does not speak is a *TraceVersionError — never a
// panic.

// TraceV2Version is the format version this package reads and writes.
const TraceV2Version = 2

// traceV2Magic opens every trace v2 stream.
var traceV2Magic = [8]byte{'S', 'U', 'S', 'H', 'I', 'T', 'R', '2'}

// Decoder hardening bounds: malformed headers cannot demand absurd
// allocations, and record parsing fails fast on the first bad byte.
const (
	traceV2MaxCohorts = 1 << 20
	traceV2MaxStrings = 1 << 20
	traceV2MaxStrLen  = 1 << 16
	traceV2MaxRecords = 1 << 31
	// traceV2AllocCap bounds speculative preallocation from declared
	// counts; real data grows the slices past it incrementally.
	traceV2AllocCap = 1 << 16
)

// CohortLabel is one row of a trace's cohort table: the recorded
// cohort's display name and the model/class its queries carried.
type CohortLabel struct {
	Name, Model, Class string
}

// TraceV2Record is one recorded arrival.
type TraceV2Record struct {
	// Arrival is seconds since stream start (non-decreasing across
	// records).
	Arrival float64
	// Cohort indexes the trace's cohort table, or -1 when the record
	// was not produced by a cohort generator.
	Cohort int
	// Model is the query's target model ("" = deployment default).
	Model string
	// Class is the query's SLO class ("" = unclassed).
	Class string
	// MinAccuracy is A_t in top-1 percent (0 = unconstrained).
	MinAccuracy float64
	// MaxLatency is L_t in seconds (0 = unconstrained).
	MaxLatency float64
}

// TraceV2 is a decoded (or to-be-encoded) trace. It implements
// ArrivalProcess — replay is deterministic by
// construction, the seed parameter is ignored — and Queries mints the
// recorded query stream with sequential IDs.
type TraceV2 struct {
	// Seed is the seed the recorded run was generated under (metadata;
	// replay does not draw randomness).
	Seed int64
	// Cohorts is the cohort table records index into.
	Cohorts []CohortLabel
	// Records are the arrivals, in non-decreasing time order.
	Records []TraceV2Record
}

// TraceVersionError reports a trace whose header declares a version
// this decoder does not speak.
type TraceVersionError struct {
	// Got is the version the header declared.
	Got uint16
}

// Error implements error.
func (e *TraceVersionError) Error() string {
	return fmt.Sprintf("workload: trace version %d, decoder speaks %d", e.Got, TraceV2Version)
}

// TraceDecodeError reports malformed or truncated trace input, with
// the byte offset the decoder gave up at. Truncation wraps
// io.ErrUnexpectedEOF (errors.Is-able); content errors carry a nil Err.
type TraceDecodeError struct {
	// Offset is the stream offset in bytes at the point of failure.
	Offset int64
	// Reason describes what was wrong.
	Reason string
	// Err is the underlying read error, if any.
	Err error
}

// Error implements error.
func (e *TraceDecodeError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("workload: trace decode at byte %d: %s: %v", e.Offset, e.Reason, e.Err)
	}
	return fmt.Sprintf("workload: trace decode at byte %d: %s", e.Offset, e.Reason)
}

// Unwrap exposes the underlying read error.
func (e *TraceDecodeError) Unwrap() error { return e.Err }

// Name implements ArrivalProcess.
func (t *TraceV2) Name() string { return "tracev2" }

// Validate rejects traces that cannot have been produced by Encode:
// out-of-order or non-finite arrivals, cohort indexes outside the
// table, non-finite constraints, or counts beyond the format bounds.
func (t *TraceV2) Validate() error {
	if len(t.Records) == 0 {
		return fmt.Errorf("workload: empty trace")
	}
	if len(t.Records) > traceV2MaxRecords {
		return fmt.Errorf("workload: trace has %d records, format cap is %d", len(t.Records), traceV2MaxRecords)
	}
	if len(t.Cohorts) > traceV2MaxCohorts {
		return fmt.Errorf("workload: trace has %d cohorts, format cap is %d", len(t.Cohorts), traceV2MaxCohorts)
	}
	for i, c := range t.Cohorts {
		if len(c.Name) > traceV2MaxStrLen || len(c.Model) > traceV2MaxStrLen || len(c.Class) > traceV2MaxStrLen {
			return fmt.Errorf("workload: trace cohort %d has an over-long label", i)
		}
	}
	prev := 0.0
	for i, r := range t.Records {
		if !(r.Arrival >= 0) || math.IsInf(r.Arrival, 0) {
			return fmt.Errorf("workload: trace record %d has invalid arrival %g", i, r.Arrival)
		}
		if r.Arrival < prev {
			return fmt.Errorf("workload: trace record %d arrives before its predecessor (%g < %g)", i, r.Arrival, prev)
		}
		prev = r.Arrival
		if r.Cohort < -1 || r.Cohort >= len(t.Cohorts) {
			return fmt.Errorf("workload: trace record %d cohort %d outside table of %d", i, r.Cohort, len(t.Cohorts))
		}
		if math.IsNaN(r.MinAccuracy) || math.IsInf(r.MinAccuracy, 0) ||
			math.IsNaN(r.MaxLatency) || math.IsInf(r.MaxLatency, 0) {
			return fmt.Errorf("workload: trace record %d has non-finite constraints (%g, %g)", i, r.MinAccuracy, r.MaxLatency)
		}
		if len(t.Records[i].Model) > traceV2MaxStrLen || len(t.Records[i].Class) > traceV2MaxStrLen {
			return fmt.Errorf("workload: trace record %d has an over-long label", i)
		}
	}
	return nil
}

// Times implements ArrivalProcess: the first n recorded arrivals (the
// seed is ignored; replay is deterministic by construction).
func (t *TraceV2) Times(n int, seed int64) ([]float64, error) {
	stream, err := t.Stream(seed)
	return collect(n, stream, err)
}

// Stream implements ArrivalProcess: recorded arrivals replayed in order,
// exhausting at the trace's end.
func (t *TraceV2) Stream(_ int64) (ArrivalStream, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	i := 0
	return func() (float64, bool) {
		if i >= len(t.Records) {
			return 0, false
		}
		at := t.Records[i].Arrival
		i++
		return at, true
	}, nil
}

// Queries mints the first n recorded queries with sequential IDs,
// aligned with Times — the replay face Cluster.Simulate consumes.
func (t *TraceV2) Queries(n int) ([]sched.Query, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: non-positive count %d", n)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if n > len(t.Records) {
		return nil, fmt.Errorf("workload: trace has %d records, %d requested", len(t.Records), n)
	}
	out := make([]sched.Query, n)
	for i := range out {
		r := &t.Records[i]
		out[i] = sched.Query{
			ID:          i,
			Model:       r.Model,
			Class:       r.Class,
			MinAccuracy: r.MinAccuracy,
			MaxLatency:  r.MaxLatency,
		}
	}
	return out, nil
}

// Encode writes the trace in the versioned wire format. The trace is
// validated first, so a stream that encodes successfully always
// decodes to an equal trace.
func (t *TraceV2) Encode(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceV2Magic[:]); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	writeU16 := func(v uint16) error {
		binary.LittleEndian.PutUint16(scratch[:2], v)
		_, err := bw.Write(scratch[:2])
		return err
	}
	writeU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		_, err := bw.Write(scratch[:8])
		return err
	}
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	writeVarint := func(v int64) error {
		n := binary.PutVarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	writeStr := func(s string) error {
		if err := writeUvarint(uint64(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := writeU16(TraceV2Version); err != nil {
		return err
	}
	if err := writeU64(uint64(t.Seed)); err != nil {
		return err
	}
	if err := writeUvarint(uint64(len(t.Cohorts))); err != nil {
		return err
	}
	for _, c := range t.Cohorts {
		for _, s := range []string{c.Name, c.Model, c.Class} {
			if err := writeStr(s); err != nil {
				return err
			}
		}
	}
	// Intern the record labels: "" is always index 0, the rest in
	// first-appearance order (model before class per record).
	table := []string{""}
	index := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := index[s]; ok {
			return i
		}
		i := uint64(len(table))
		table = append(table, s)
		index[s] = i
		return i
	}
	type encRecord struct{ model, class uint64 }
	enc := make([]encRecord, len(t.Records))
	for i, r := range t.Records {
		enc[i] = encRecord{model: intern(r.Model), class: intern(r.Class)}
	}
	if err := writeUvarint(uint64(len(table))); err != nil {
		return err
	}
	for _, s := range table {
		if err := writeStr(s); err != nil {
			return err
		}
	}
	if err := writeUvarint(uint64(len(t.Records))); err != nil {
		return err
	}
	for i, r := range t.Records {
		if err := writeU64(math.Float64bits(r.Arrival)); err != nil {
			return err
		}
		if err := writeVarint(int64(r.Cohort)); err != nil {
			return err
		}
		if err := writeUvarint(enc[i].model); err != nil {
			return err
		}
		if err := writeUvarint(enc[i].class); err != nil {
			return err
		}
		if err := writeU64(math.Float64bits(r.MinAccuracy)); err != nil {
			return err
		}
		if err := writeU64(math.Float64bits(r.MaxLatency)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// traceDecoder tracks the byte offset for error reporting.
type traceDecoder struct {
	r   *bufio.Reader
	off int64
}

// fail wraps a failure into the typed decode error, normalizing EOF
// mid-structure to io.ErrUnexpectedEOF (truncation).
func (d *traceDecoder) fail(reason string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return &TraceDecodeError{Offset: d.off, Reason: reason, Err: err}
}

func (d *traceDecoder) bytes(buf []byte, what string) error {
	n, err := io.ReadFull(d.r, buf)
	d.off += int64(n)
	if err != nil {
		return d.fail("truncated "+what, err)
	}
	return nil
}

func (d *traceDecoder) u16(what string) (uint16, error) {
	var buf [2]byte
	if err := d.bytes(buf[:], what); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(buf[:]), nil
}

func (d *traceDecoder) u64(what string) (uint64, error) {
	var buf [8]byte
	if err := d.bytes(buf[:], what); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

func (d *traceDecoder) uvarint(what string) (uint64, error) {
	v, err := binary.ReadUvarint(d)
	if err != nil {
		return 0, d.fail("truncated or overlong "+what, err)
	}
	return v, nil
}

func (d *traceDecoder) varint(what string) (int64, error) {
	v, err := binary.ReadVarint(d)
	if err != nil {
		return 0, d.fail("truncated or overlong "+what, err)
	}
	return v, nil
}

// ReadByte implements io.ByteReader for the varint readers, keeping
// the offset honest per byte.
func (d *traceDecoder) ReadByte() (byte, error) {
	b, err := d.r.ReadByte()
	if err == nil {
		d.off++
	}
	return b, err
}

func (d *traceDecoder) str(what string) (string, error) {
	n, err := d.uvarint(what + " length")
	if err != nil {
		return "", err
	}
	if n > traceV2MaxStrLen {
		return "", d.fail(fmt.Sprintf("%s length %d exceeds cap %d", what, n, traceV2MaxStrLen), nil)
	}
	buf := make([]byte, n)
	if err := d.bytes(buf, what); err != nil {
		return "", err
	}
	return string(buf), nil
}

// finite rejects NaN/Inf float bits for fields replay arithmetic
// consumes.
func finite(bits uint64) (float64, bool) {
	f := math.Float64frombits(bits)
	return f, !math.IsNaN(f) && !math.IsInf(f, 0)
}

// DecodeTraceV2 reads one trace v2 stream. Malformed or truncated
// input returns *TraceDecodeError, an unsupported version
// *TraceVersionError; a nil error means the trace passed the same
// validation Encode enforces, so decode(encode(t)) round-trips
// exactly.
func DecodeTraceV2(r io.Reader) (*TraceV2, error) {
	d := &traceDecoder{r: bufio.NewReader(r)}
	var magic [8]byte
	if err := d.bytes(magic[:], "magic"); err != nil {
		return nil, err
	}
	if magic != traceV2Magic {
		return nil, d.fail(fmt.Sprintf("bad magic %q", magic[:]), nil)
	}
	version, err := d.u16("version")
	if err != nil {
		return nil, err
	}
	if version != TraceV2Version {
		return nil, &TraceVersionError{Got: version}
	}
	seedBits, err := d.u64("seed")
	if err != nil {
		return nil, err
	}
	t := &TraceV2{Seed: int64(seedBits)}
	ncohorts, err := d.uvarint("cohort count")
	if err != nil {
		return nil, err
	}
	if ncohorts > traceV2MaxCohorts {
		return nil, d.fail(fmt.Sprintf("cohort count %d exceeds cap %d", ncohorts, traceV2MaxCohorts), nil)
	}
	if ncohorts > 0 {
		t.Cohorts = make([]CohortLabel, 0, min(ncohorts, traceV2AllocCap))
	}
	for i := uint64(0); i < ncohorts; i++ {
		var c CohortLabel
		if c.Name, err = d.str("cohort name"); err != nil {
			return nil, err
		}
		if c.Model, err = d.str("cohort model"); err != nil {
			return nil, err
		}
		if c.Class, err = d.str("cohort class"); err != nil {
			return nil, err
		}
		t.Cohorts = append(t.Cohorts, c)
	}
	nstrings, err := d.uvarint("string-table count")
	if err != nil {
		return nil, err
	}
	if nstrings == 0 || nstrings > traceV2MaxStrings {
		return nil, d.fail(fmt.Sprintf("string-table count %d outside [1, %d]", nstrings, traceV2MaxStrings), nil)
	}
	table := make([]string, 0, min(nstrings, traceV2AllocCap))
	for i := uint64(0); i < nstrings; i++ {
		s, err := d.str("string-table entry")
		if err != nil {
			return nil, err
		}
		table = append(table, s)
	}
	if table[0] != "" {
		return nil, d.fail("string-table entry 0 must be empty", nil)
	}
	nrecords, err := d.uvarint("record count")
	if err != nil {
		return nil, err
	}
	if nrecords == 0 || nrecords > traceV2MaxRecords {
		return nil, d.fail(fmt.Sprintf("record count %d outside [1, %d]", nrecords, traceV2MaxRecords), nil)
	}
	t.Records = make([]TraceV2Record, 0, min(nrecords, traceV2AllocCap))
	prev := 0.0
	for i := uint64(0); i < nrecords; i++ {
		var r TraceV2Record
		bits, err := d.u64("record arrival")
		if err != nil {
			return nil, err
		}
		arrival, ok := finite(bits)
		if !ok || arrival < 0 {
			return nil, d.fail(fmt.Sprintf("record %d has invalid arrival %g", i, arrival), nil)
		}
		if arrival < prev {
			return nil, d.fail(fmt.Sprintf("record %d arrives before its predecessor (%g < %g)", i, arrival, prev), nil)
		}
		prev = arrival
		r.Arrival = arrival
		cohort, err := d.varint("record cohort")
		if err != nil {
			return nil, err
		}
		if cohort < -1 || cohort >= int64(ncohorts) {
			return nil, d.fail(fmt.Sprintf("record %d cohort %d outside table of %d", i, cohort, ncohorts), nil)
		}
		r.Cohort = int(cohort)
		mi, err := d.uvarint("record model index")
		if err != nil {
			return nil, err
		}
		ci, err := d.uvarint("record class index")
		if err != nil {
			return nil, err
		}
		if mi >= uint64(len(table)) || ci >= uint64(len(table)) {
			return nil, d.fail(fmt.Sprintf("record %d string index outside table of %d", i, len(table)), nil)
		}
		r.Model, r.Class = table[mi], table[ci]
		if bits, err = d.u64("record min-accuracy"); err != nil {
			return nil, err
		}
		if r.MinAccuracy, ok = finite(bits); !ok {
			return nil, d.fail(fmt.Sprintf("record %d has non-finite min-accuracy", i), nil)
		}
		if bits, err = d.u64("record max-latency"); err != nil {
			return nil, err
		}
		if r.MaxLatency, ok = finite(bits); !ok {
			return nil, d.fail(fmt.Sprintf("record %d has non-finite max-latency", i), nil)
		}
		t.Records = append(t.Records, r)
	}
	return t, nil
}
