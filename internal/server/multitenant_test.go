package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"sushi/internal/core"
	"sushi/internal/sched"
	"sushi/internal/serving"
)

// testMultiServer boots a two-model deployment behind the v1 API.
func testMultiServer(t *testing.T) *httptest.Server {
	t.Helper()
	dep, err := core.DeployCluster(
		core.DeployOptions{Policy: sched.StrictLatency},
		core.ClusterOptions{
			Replicas:  2,
			Models:    []core.Workload{core.ResNet50, core.MobileNetV3},
			Partition: &serving.PartitionPolicy{Mode: serving.PartitionTraffic},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(dep))
	t.Cleanup(ts.Close)
	return ts
}

// TestServeModelField: the model request field routes to the right
// tenant, is echoed in the response, defaults to the first model, and
// rejects unknown models with a 400.
func TestServeModelField(t *testing.T) {
	ts := testMultiServer(t)
	resp, out := postServe(t, ts, `{"model": "mobilenetv3", "max_latency_ms": 500}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mobilenetv3 serve: status %d", resp.StatusCode)
	}
	if out.Model != "mobilenetv3" {
		t.Errorf("response model %q, want mobilenetv3", out.Model)
	}
	resp, out = postServe(t, ts, `{"max_latency_ms": 500}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default serve: status %d", resp.StatusCode)
	}
	if out.Model != "resnet50" {
		t.Errorf("default model %q, want resnet50 (first listed)", out.Model)
	}
	resp, _ = postServe(t, ts, `{"model": "alexnet", "max_latency_ms": 500}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown model: status %d, want 400", resp.StatusCode)
	}
	// healthz advertises the hosted models.
	var health struct {
		Models []string `json:"models"`
	}
	getJSON(t, ts, "/healthz", &health)
	if len(health.Models) != 2 {
		t.Errorf("healthz models = %v", health.Models)
	}
}

// TestSimulateModelAndPerModel: /v1/simulate accepts a model field, a
// per-point model trace (the HTTP face of workload.Mix), and reports
// per-model slices; /v1/replicas and /v1/stats carry them too.
func TestSimulateModelAndPerModel(t *testing.T) {
	ts := testMultiServer(t)
	resp, out := postSimulate(t, ts,
		`{"queries": 40, "rate_qps": 120, "model": "mobilenetv3", "max_latency_ms": 500, "seed": 3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d", resp.StatusCode)
	}
	if len(out.PerModel) != 1 || out.PerModel[0].Model != "mobilenetv3" {
		t.Fatalf("per_model = %+v, want one mobilenetv3 slice", out.PerModel)
	}
	if out.PerModel[0].Queries != 40 {
		t.Errorf("per_model queries = %d, want 40", out.PerModel[0].Queries)
	}
	// Mixed trace: per-point models.
	resp, out = postSimulate(t, ts, `{"process": "trace", "trace": [
		{"arrival_s": 0.00, "model": "resnet50", "max_latency_ms": 500},
		{"arrival_s": 0.01, "model": "mobilenetv3", "max_latency_ms": 500},
		{"arrival_s": 0.02, "model": "resnet50", "max_latency_ms": 500},
		{"arrival_s": 0.03, "max_latency_ms": 500}
	]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace simulate: status %d", resp.StatusCode)
	}
	got := map[string]int{}
	for _, ms := range out.PerModel {
		got[ms.Model] = ms.Queries
	}
	if got["resnet50"] != 3 || got["mobilenetv3"] != 1 {
		t.Errorf("trace per_model = %v, want resnet50:3 mobilenetv3:1", got)
	}
	// Unknown model in a trace is a 400, not a 500.
	resp, _ = postSimulate(t, ts, `{"process": "trace", "trace": [
		{"arrival_s": 0, "model": "alexnet", "max_latency_ms": 500}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown trace model: status %d, want 400", resp.StatusCode)
	}
	// /v1/replicas carries per-model slices with PB shares.
	var reps []core.ReplicaView
	getJSON(t, ts, "/v1/replicas", &reps)
	for _, r := range reps {
		if len(r.Models) != 2 {
			t.Fatalf("replica %d has %d model slices", r.ID, len(r.Models))
		}
		for _, mv := range r.Models {
			if mv.PBShareKB <= 0 {
				t.Errorf("replica %d model %s has no PB share", r.ID, mv.Model)
			}
		}
	}
	// /v1/stats reflects LIVE traffic (simulated runs keep their own
	// accumulators); serve one query per model and check the slices.
	postServe(t, ts, `{"model": "resnet50", "max_latency_ms": 500}`)
	postServe(t, ts, `{"model": "mobilenetv3", "max_latency_ms": 500}`)
	var stats StatsResponse
	getJSON(t, ts, "/v1/stats", &stats)
	if len(stats.PerModel) != 2 {
		t.Errorf("/v1/stats per_model = %+v, want both models", stats.PerModel)
	}
}

// TestStatsLiveSlicesReportServiceSLO: on live (closed-loop) traffic the
// per-model and per-class slices of /v1/stats report the service-latency
// SLO, the same quantity as the top-level latency_slo; end-to-end
// attainment exists only for open-loop runs and used to read 0 there.
func TestStatsLiveSlicesReportServiceSLO(t *testing.T) {
	ts := testMultiServer(t)
	for i := 0; i < 12; i++ {
		model := []string{"resnet50", "mobilenetv3"}[i%2]
		resp, out := postServe(t, ts, `{"model": "`+model+`", "class": "gold", "max_latency_ms": 500}`)
		if resp.StatusCode != http.StatusOK || !out.LatencyMet {
			t.Fatalf("serve %d: status %d, latency_met %v", i, resp.StatusCode, out.LatencyMet)
		}
	}
	var stats StatsResponse
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.LatencySLO != 1 {
		t.Fatalf("latency_slo %g, want 1", stats.LatencySLO)
	}
	if len(stats.PerModel) != 2 || len(stats.PerClass) != 1 {
		t.Fatalf("slices: %d models, %d classes, want 2 and 1", len(stats.PerModel), len(stats.PerClass))
	}
	for _, v := range append(stats.PerModel, stats.PerClass...) {
		if v.SLO != 1 || v.Queries == 0 {
			t.Errorf("slice model=%q class=%q: slo %g over %d queries, want 1", v.Model, v.Class, v.SLO, v.Queries)
		}
		if (v.Model == "") == (v.Class == "") {
			t.Errorf("slice names model=%q and class=%q, want exactly one", v.Model, v.Class)
		}
	}
}
