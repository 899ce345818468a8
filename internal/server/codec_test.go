package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sushi/internal/sched"
	"sushi/internal/serving"
)

// The oracle: encoding/json itself, as the handlers used it before the
// codec replaced it.

// decodeStrict decodes one JSON value rejecting unknown fields.
func decodeStrict(dec *json.Decoder, req *ServeRequest) error {
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

func serveResponse(id int, res serving.Served) ServeResponse {
	return ServeResponse{
		ID:           id,
		Model:        res.Query.Model,
		SubNet:       res.SubNet,
		Accuracy:     res.Accuracy,
		LatencyMS:    res.Latency * 1e3,
		Feasible:     res.Feasible,
		LatencyMet:   res.LatencyMet,
		AccuracyMet:  res.AccuracyMet,
		HitRatio:     res.HitRatio,
		CacheSwapped: res.CacheSwapped,
	}
}

var testModels = []string{"resnet50", "mobilenetv3"}

// decodeStream decodes data as a stream of values, as /v1/serve/batch
// does, up to its first error (io.EOF at a clean end).
func decodeStream(data []byte, decode func(*ServeRequest) error) ([]ServeRequest, error) {
	var reqs []ServeRequest
	for {
		var req ServeRequest
		if err := decode(&req); err != nil {
			return reqs, err
		}
		reqs = append(reqs, req)
	}
}

func codecStream(data []byte) ([]ServeRequest, error) {
	i := 0
	return decodeStream(data, func(req *ServeRequest) (err error) {
		i, err = decodeServeRequest(data, i, req, testModels)
		return err
	})
}

func oracleStream(data []byte) ([]ServeRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	return decodeStream(data, func(req *ServeRequest) error { return decodeStrict(dec, req) })
}

func sameRequest(a, b ServeRequest) bool {
	return a.Model == b.Model && a.Class == b.Class && a.Policy == b.Policy &&
		math.Float64bits(a.MinAccuracy) == math.Float64bits(b.MinAccuracy) &&
		math.Float64bits(a.MaxLatencyMS) == math.Float64bits(b.MaxLatencyMS) &&
		math.Float64bits(a.DeadlineMS) == math.Float64bits(b.DeadlineMS)
}

// FuzzDecodeServeRequest holds the codec to encoding/json on arbitrary
// bytes read as a multi-value stream: the same number of values decoded
// before the stream ends or fails, the same clean-end/error verdict, the
// same fields bit for bit. Error text is free to differ.
func FuzzDecodeServeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		compareStreams(t, data)
	})
}

// compareStreams fails the test where the codec and encoding/json part
// ways on data, and returns how many values both decoded.
func compareStreams(t *testing.T, data []byte) int {
	t.Helper()
	got, gotErr := codecStream(data)
	want, wantErr := oracleStream(data)
	if len(got) != len(want) || (gotErr == io.EOF) != (wantErr == io.EOF) {
		t.Fatalf("%q: codec decoded %d values then %v, encoding/json %d then %v",
			data, len(got), gotErr, len(want), wantErr)
	}
	for i := range got {
		if !sameRequest(got[i], want[i]) {
			t.Fatalf("%q: value %d: codec %+v, encoding/json %+v", data, i, got[i], want[i])
		}
	}
	return len(got)
}

// TestDecodeServeRequestMutations builds streams from the pieces the
// traps are made of (folded, escaped and unknown keys; strings, numbers
// and literals of every kind, good and bad; separators) and flips bytes
// in a third of them. Unlike byte-level fuzzing it spends most of its
// time inside and right at the edge of the accepted set.
func TestDecodeServeRequestMutations(t *testing.T) {
	bs := string(rune(92))
	keys := []string{`"model"`, `"class"`, `"min_accuracy"`, `"max_latency_ms"`, `"deadline_ms"`, `"policy"`,
		`"MODEL"`, `"Policy"`, `"cla` + string(rune(0x17f)) + `s"`, `"deadline_m` + bs + `u017f"`, `"` + bs + `u006dodel"`,
		`"max_latency"`, `"polic` + string(rune(0x212a)) + `"`, `""`, `model`, `"min_accuracy`}
	values := []string{`"resnet50"`, `"mobilenetv3"`, `"lat"`, `"gold"`, `""`, `"a` + bs + `nb"`, `"` + bs + `ud83d` + bs + `ude00"`,
		`"` + bs + `ud83d"`, `"` + bs + `ude00x"`, "\"\xff\"", "\"a\tb\"", `"` + bs + `x"`, `"` + bs + `u00e9` + string(rune(0xe9)) + `"`, `"open`,
		`null`, `true`, `nul`, `{}`, `[1]`, `0`, `-0`, `78`, `77.25`, `1e2`, `1E-3`, `1e999`, `-1e-999`, `01`, `1.`, `.5`, `+1`,
		`-`, `1e`, `0x10`, `Inf`, `NaN`, `3.0000000000000000000000000000000000001`, `123456789012345678901234567890`}
	seps := []string{``, ` `, "\n", "\r\n\t", `,`, `x`}
	rng := rand.New(rand.NewSource(19))
	pick := func(from []string) string { return from[rng.Intn(len(from))] }
	n := 20000
	if testing.Short() {
		n = 2000
	}
	accepted := 0
	for range n {
		var b []byte
		for v := rng.Intn(4); v >= 0; v-- {
			switch rng.Intn(12) {
			case 0:
				b = append(b, pick(values)...)
			default:
				b = append(b, '{')
				for f := rng.Intn(5); f > 0; f-- {
					b = append(append(append(b, pick(keys)...), pick([]string{`:`, ` : `, `:`, `:`, ``})...), pick(values)...)
					if f > 1 || rng.Intn(20) == 0 {
						b = append(b, pick([]string{`,`, ` , `, `,`, `,`, ``})...)
					}
				}
				if rng.Intn(20) != 0 {
					b = append(b, '}')
				}
			}
			b = append(b, pick(seps)...)
		}
		if len(b) > 0 && rng.Intn(3) == 0 {
			b[rng.Intn(len(b))] = byte(rng.Intn(256))
		}
		accepted += compareStreams(t, b)
	}
	if accepted < n/10 {
		t.Errorf("only %d values accepted over %d streams: the generator has drifted out of the accepted set", accepted, n)
	}
}

// FuzzAppendServeResponse holds the reply writer to json.Encoder: the
// same bytes, and an error exactly when it has one (NaN or an infinity).
func FuzzAppendServeResponse(f *testing.F) {
	f.Fuzz(compareReplies)
}

// compareReplies renders the reply twice through one fresh memo, so its
// floats are written once on a miss and once copied from a hit, and
// holds both renderings to json.Encoder.
func compareReplies(t *testing.T, id int, model, subnet string, accuracy, latency, hitRatio float64, flags byte) {
	res := serving.Served{
		Query:        sched.Query{Model: model},
		SubNet:       subnet,
		Accuracy:     accuracy,
		Latency:      latency,
		HitRatio:     hitRatio,
		Feasible:     flags&1 != 0,
		LatencyMet:   flags&2 != 0,
		AccuracyMet:  flags&4 != 0,
		CacheSwapped: flags&8 != 0,
	}
	var want bytes.Buffer
	wantErr := json.NewEncoder(&want).Encode(serveResponse(id, res))
	memo := new(floatMemo)
	for _, pass := range []string{"miss", "hit"} {
		got, gotErr := appendServeResponse(nil, memo, id, &res)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%+v (%s): codec error %v, encoding/json error %v", res, pass, gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%+v (%s):\ncodec         %q\nencoding/json %q", res, pass, got, want.Bytes())
		}
	}
}

// TestFloatMemoCollisions alternates pairs of values that share a memo
// slot, each rendered twice in a row (a miss that evicts the other's
// text, then a hit): +0 and -0, equal as floats but not as bits, and two
// neighbouring floats with the same float32 rounding. A memo keyed on
// anything less than all 64 bits, or copying other than the stored
// length, renders one of them wrong.
func TestFloatMemoCollisions(t *testing.T) {
	memo := new(floatMemo)
	slot := func(f float64) uint64 { return memoSlot(math.Float64bits(f)) }
	a := 77.1
	b := math.Nextafter(a, 100)
	for slot(b) != slot(a) {
		b = math.Nextafter(b, 100)
	}
	if float32(a) != float32(b) {
		t.Fatalf("%v and %v share a slot but not a float32", a, b)
	}
	for _, pair := range [][2]float64{{0, math.Copysign(0, -1)}, {a, b}} {
		if slot(pair[0]) != slot(pair[1]) {
			t.Fatalf("%v and %v do not share a slot", pair[0], pair[1])
		}
		for i := range 8 {
			f := pair[i/2%2]
			want, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			if got := memo.appendFloat(nil, f); !bytes.Equal(got, want) {
				t.Errorf("rendering %d of %v: %q, want %q", i, f, got, want)
			}
		}
	}
}

// TestAppendServeResponseRandom draws replies with floats of every
// magnitude (random bit patterns, and values around the 1e-6 and 1e21
// format switches) and names of random bytes.
func TestAppendServeResponseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	float := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return math.Float64frombits(rng.Uint64())
		case 1:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(34)-10))
		}
		return float64(rng.Intn(2000)) / 16
	}
	name := func() string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			if b[i] = byte(rng.Intn(128)); rng.Intn(8) == 0 {
				b[i] = byte(rng.Intn(256))
			}
		}
		return string(b) + []string{"", "", "\u2028", "\u2029", "\u00e9", "<&>"}[rng.Intn(6)]
	}
	for range 20000 {
		compareReplies(t, rng.Intn(1<<20)-8, name(), name(), float(), float(), float(), byte(rng.Intn(16)))
	}
}

// TestDecodeServeRequestTraps spells out what the fuzz corpus only holds
// equal to encoding/json: the accepted oddities decode to these values.
func TestDecodeServeRequestTraps(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []ServeRequest
		eof  bool
	}{
		{`{"MODEL":"a","cla` + "\u017f" + `s":"gold","Min_Accuracy":70}`, []ServeRequest{{Model: "a", Class: "gold", MinAccuracy: 70}}, true},
		{`{"min_accuracy":1,"min_accuracy":2,"model":"a","model":null}`, []ServeRequest{{Model: "a", MinAccuracy: 2}}, true},
		{"null \n{\"policy\":null}", []ServeRequest{{}, {}}, true},
		{`{"class":"\ud83d\ude00 \ud83d \u00e9` + "\xff" + `"}`, []ServeRequest{{Class: "\U0001F600 \uFFFD \u00e9\uFFFD"}}, true},
		{`{"min_accuracy":-0,"deadline_ms":1e-999,"max_latency_ms":1E+2}`, []ServeRequest{{MinAccuracy: math.Copysign(0, -1), MaxLatencyMS: 100}}, true},
		{`{}{} x`, []ServeRequest{{}, {}}, false},
		{`{"min_accuracy":01}`, nil, false},
		{`{"min_accuracy":1e999}`, nil, false},
		{`{"min_accuracy":"70"}`, nil, false},
		{"{\"class\":\"a\tb\"}", nil, false},
		{`{"model":"a"`, nil, false},
		{`{"model":"a",}`, nil, false},
		{`{"` + "\u212a" + `":1}`, nil, false},
		{`[{}]`, nil, false},
	} {
		got, err := codecStream([]byte(c.in))
		if len(got) != len(c.want) || (err == io.EOF) != c.eof {
			t.Errorf("%q: decoded %+v then %v, want %+v (clean end %v)", c.in, got, err, c.want, c.eof)
			continue
		}
		for i := range got {
			if !sameRequest(got[i], c.want[i]) {
				t.Errorf("%q: value %d is %+v, want %+v", c.in, i, got[i], c.want[i])
			}
		}
	}
}

// benchLines renders n request lines of the shape bench/ sends (model,
// two shortest-form floats, policy) and the results a fleet would give.
// As on the server, a reply's numbers are cells of a small table: the
// accuracy of one of 12 SubNet rows, and its latency and hit ratio under
// one of 4 cache columns.
func benchLines(n int) ([]byte, []serving.Served) {
	const rows, cols = 12, 4
	var body []byte
	rs := make([]serving.Served, n)
	for i := range rs {
		model := testModels[i%2]
		body = fmt.Appendf(body, `{"model":%q,"min_accuracy":%v,"max_latency_ms":%v,"policy":%q}`+"\n",
			model, 70+float64(i)/17, 1+float64(i)/3, policyNames[i%3])
		row, col := i*7%rows, i/16%cols
		rs[i] = serving.Served{Query: sched.Query{Model: model}, SubNet: "mbv3-B", Accuracy: 71.3 + 0.61*float64(row),
			Latency: (1.83e-3 + 2.9e-4*float64(row)) * (1 - 0.07*float64(col)), Feasible: true, LatencyMet: i%3 != 0,
			AccuracyMet: true, HitRatio: float64(row+col) / (rows + cols), CacheSwapped: i%16 == 0}
	}
	return body, rs
}

// TestServeCodecAllocs pins the codec's allocation budget on the bench's
// line shape: a line decodes with at most one allocation (the model
// string) and none when the model is a hosted one, and a reply renders
// into a grown buffer with none.
func TestServeCodecAllocs(t *testing.T) {
	const n = 256
	body, rs := benchLines(n)
	decodeAll := func(models []string) func() {
		return func() {
			for i, lines := 0, 0; ; lines++ {
				var req ServeRequest
				next, err := decodeServeRequest(body, i, &req, models)
				if err == io.EOF && lines == n {
					return
				}
				if err != nil {
					t.Fatalf("line %d: %v", lines, err)
				}
				if _, err := req.query(lines); err != nil {
					t.Fatal(err)
				}
				i = next
			}
		}
	}
	if per := testing.AllocsPerRun(20, decodeAll(nil)) / n; per > 1 {
		t.Errorf("decode: %.2f allocs/line, want <= 1", per)
	}
	if per := testing.AllocsPerRun(20, decodeAll(testModels)) / n; per != 0 {
		t.Errorf("decode of hosted models: %.2f allocs/line, want 0", per)
	}
	buf := make([]byte, 0, 256*n)
	memo := new(floatMemo)
	if per := testing.AllocsPerRun(20, func() {
		out := buf
		for i := range rs {
			out, _ = appendServeResponse(out, memo, i, &rs[i])
		}
	}); per != 0 {
		t.Errorf("encode: %.2f allocs per %d replies, want 0", per, n)
	}
}

// BenchmarkServeCodec is the layer's before/after row: one 256-line
// batch decoded and its 256 replies rendered, by the codec (its memo
// warm, as a pooled one is on the server) and by encoding/json as the
// handlers used it.
func BenchmarkServeCodec(b *testing.B) {
	body, rs := benchLines(256)
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		var out []byte
		memo := new(floatMemo)
		for b.Loop() {
			for i := 0; ; {
				var req ServeRequest
				next, err := decodeServeRequest(body, i, &req, testModels)
				if err != nil {
					break
				}
				i = next
			}
			out = out[:0]
			for i := range rs {
				out, _ = appendServeResponse(out, memo, i, &rs[i])
			}
		}
	})
	b.Run("encodingjson", func(b *testing.B) {
		b.ReportAllocs()
		var out bytes.Buffer
		for b.Loop() {
			dec := json.NewDecoder(bytes.NewReader(body))
			for {
				var req ServeRequest
				if decodeStrict(dec, &req) != nil {
					break
				}
			}
			out.Reset()
			enc := json.NewEncoder(&out)
			for i := range rs {
				_ = enc.Encode(serveResponse(i, rs[i]))
			}
		}
	})
}

// TestHugeDeadlineServes: a deadline_ms too large for a time.Duration
// used to wrap negative, arm an already-expired context and answer 504.
func TestHugeDeadlineServes(t *testing.T) {
	ts := testServer(t, 1, "")
	for _, body := range []string{
		`{"min_accuracy":70,"deadline_ms":1e13}`,
		`{"min_accuracy":70,"deadline_ms":1e300}`,
	} {
		if resp, _ := postServe(t, ts, body); resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, want 200", body, resp.StatusCode)
		}
	}
}

// TestUnencodableReplyIs500: a result no JSON number can carry fails the
// whole reply with a 500 and the JSON error body; it used to end a 200
// batch stream silently after the lines before it.
func TestUnencodableReplyIs500(t *testing.T) {
	good := serving.Served{SubNet: "A", Accuracy: 77, Latency: 1e-3, HitRatio: 0.5}
	for name, mutate := range map[string]func(*serving.Served){
		"NaN accuracy":  func(r *serving.Served) { r.Accuracy = math.NaN() },
		"+Inf latency":  func(r *serving.Served) { r.Latency = math.Inf(1) },
		"-Inf hit rate": func(r *serving.Served) { r.HitRatio = math.Inf(-1) },
	} {
		rs := []serving.Served{good, good, good}
		mutate(&rs[1])
		rec := httptest.NewRecorder()
		writeReplies(rec, "application/x-ndjson", new(exchange), make([]sched.Query, len(rs)), rs)
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
			t.Errorf("%s: body %q is not the JSON error object (%v)", name, rec.Body, err)
		}
		if rec.Code != http.StatusInternalServerError || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: status %d, content type %q", name, rec.Code, rec.Header().Get("Content-Type"))
		}
	}
}

// TestBodyCap: a body past the endpoint's cap is a 413 with the usual
// error object, and the server serves the next request.
func TestBodyCap(t *testing.T) {
	ts := testServer(t, 1, "")
	line := `{"min_accuracy":70}` + "\n"
	for path, limit := range map[string]int{"/v1/serve": maxServeBody, "/v1/serve/batch": maxBatchBody} {
		for _, c := range []struct {
			size, want int
		}{{limit + 1, http.StatusRequestEntityTooLarge}, {limit, http.StatusOK}} {
			body := line + strings.Repeat(" ", c.size-len(line))
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var msg map[string]string
			err = json.NewDecoder(resp.Body).Decode(&msg)
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("%s with %d bytes: status %d, want %d", path, c.size, resp.StatusCode, c.want)
			}
			if c.want != http.StatusOK && (err != nil || msg["error"] == "") {
				t.Errorf("%s with %d bytes: body is not the JSON error object (%v)", path, c.size, err)
			}
		}
	}
}

// TestServeStreams: /v1/serve reads its first value and ignores what
// follows; /v1/serve/batch reads every value, on one line or many, and a
// value it cannot read fails the batch.
func TestServeStreams(t *testing.T) {
	ts := testServer(t, 1, "")
	if resp, _ := postServe(t, ts, `{"min_accuracy":70} trailing garbage`); resp.StatusCode != http.StatusOK {
		t.Errorf("/v1/serve with trailing bytes: status %d, want 200", resp.StatusCode)
	}
	for body, want := range map[string]int{
		`{"min_accuracy":70}{"min_accuracy":71}` + "\n\n" + `null`: 3,
		`{"min_accuracy":70} x`: 0,
	} {
		resp, err := http.Post(ts.URL+"/v1/serve/batch", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want == 0 {
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("batch %q: status %d, want 400", body, resp.StatusCode)
			}
			continue
		}
		if got := bytes.Count(reply, []byte{'\n'}); resp.StatusCode != http.StatusOK || got != want {
			t.Errorf("batch %q: status %d with %d lines, want 200 with %d", body, resp.StatusCode, got, want)
		}
	}
}
