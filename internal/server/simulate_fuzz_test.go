package server

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// readmeSimulateBody is README's /v1/simulate request example with its
// comments stripped: every field of the body in one document.
func readmeSimulateBody(tb testing.TB) []byte {
	doc, err := os.ReadFile("../../README.md")
	if err != nil {
		tb.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "### `POST /v1/simulate`")
	_, example, ok2 := strings.Cut(section, "```json\n")
	example, _, ok3 := strings.Cut(example, "```")
	if !ok || !ok2 || !ok3 {
		tb.Fatal("README has no /v1/simulate request example")
	}
	var body bytes.Buffer
	for _, line := range strings.Split(example, "\n") {
		line, _, _ = strings.Cut(line, "//")
		body.WriteString(line + "\n")
	}
	return body.Bytes()
}

// FuzzSimulateStream decodes a /v1/simulate body the way handleSimulate
// does and builds its query stream. Every input either fails or yields
// finite, non-negative, non-decreasing arrivals whose constraints are in
// the ranges /v1/serve accepts; none may panic.
func FuzzSimulateStream(f *testing.F) {
	f.Add(readmeSimulateBody(f))
	for _, body := range badSimulateBodies {
		f.Add([]byte(body))
	}
	for _, body := range hostileSimulateBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var req SimulateRequest
		if dec.Decode(&req) != nil {
			return
		}
		if req.Queries > 4096 || len(req.Trace) > 4096 {
			t.Skip("stream longer than the fuzz budget")
		}
		qs, err := req.stream(nil)
		if err != nil {
			return
		}
		prev := 0.0
		for i, q := range qs {
			if a := q.Arrival; math.IsNaN(a) || math.IsInf(a, 0) || a < prev {
				t.Fatalf("%q: arrival %d is %g after %g", data, i, a, prev)
			}
			prev = q.Arrival
			if q.MinAccuracy < 0 || q.MinAccuracy > 100 || !(q.MaxLatency >= 0) || math.IsInf(q.MaxLatency, 0) {
				t.Fatalf("%q: query %d carries constraints (%g, %g)", data, i, q.MinAccuracy, q.MaxLatency)
			}
		}
	})
}
