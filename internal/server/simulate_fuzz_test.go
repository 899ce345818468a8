package server

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// fullSimulateBody sets every generator, queueing, router, batching
// and autoscale knob of a /v1/simulate body at once.
const fullSimulateBody = `{
  "queries": 200,
  "process": "poisson",
  "cohorts": "rate=120,class=gold,budget=10|20;rate=60,class=batch,budget=60",
  "rate_qps": 800,
  "burst_rate_qps": 2000,
  "mean_on_s": 0.2, "mean_off_s": 0.8,
  "amplitude": 0.8, "period_s": 2,
  "trace": [{"arrival_s": 0, "min_accuracy": 70, "max_latency_ms": 8}],
  "min_accuracy": 70, "max_latency_ms": 8,
  "seed": 1,
  "queue": 6,
  "admission": "reject",
  "load_aware": true, "drop": true,
  "router": "least-loaded", "router_seed": 1,
  "max_batch": 4,
  "batch_window_ms": 2,
  "autoscale_min": 2, "autoscale_max": 8,
  "autoscale_policy": "utilization",
  "autoscale_interval_s": 0.01,
  "autoscale_cooldown_s": 0
}`

// FuzzSimulateStream decodes a /v1/simulate body the way handleSimulate
// does and builds its query stream. Every input either fails or yields
// finite, non-negative, non-decreasing arrivals whose constraints are in
// the ranges /v1/serve accepts; none may panic.
func FuzzSimulateStream(f *testing.F) {
	full := json.NewDecoder(strings.NewReader(fullSimulateBody))
	full.DisallowUnknownFields()
	if err := full.Decode(new(SimulateRequest)); err != nil {
		f.Fatalf("fullSimulateBody no longer decodes: %v", err)
	}
	f.Add([]byte(fullSimulateBody))
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
