package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sushi/internal/core"
	"sushi/internal/serving"
)

func testServer(t *testing.T, replicas int, router string) *httptest.Server {
	t.Helper()
	dep, err := core.DeployCluster(
		core.DeployOptions{Workload: core.MobileNetV3},
		core.ClusterOptions{Replicas: replicas, Router: router},
	)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(dep))
	t.Cleanup(ts.Close)
	return ts
}

func postServe(t *testing.T, ts *httptest.Server, body string) (*http.Response, ServeResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/serve", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	var out ServeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, out
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestHealth(t *testing.T) {
	ts := testServer(t, 3, core.RouterAffinity)
	var out map[string]any
	getJSON(t, ts, "/healthz", &out)
	if out["status"] != "ok" || out["replicas"] != float64(3) || out["router"] != "affinity" {
		t.Fatalf("health %v", out)
	}
}

func TestServeEndpoint(t *testing.T) {
	ts := testServer(t, 1, "")
	resp, out := postServe(t, ts, `{"min_accuracy": 78, "max_latency_ms": 10}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.SubNet == "" || out.Accuracy < 78 || out.LatencyMS <= 0 {
		t.Fatalf("bad response %+v", out)
	}
	if !out.AccuracyMet {
		t.Error("accuracy floor not met under strict-accuracy default")
	}
	// IDs increment.
	_, out2 := postServe(t, ts, `{"min_accuracy": 76, "max_latency_ms": 10}`)
	if out2.ID != out.ID+1 {
		t.Errorf("ids %d then %d", out.ID, out2.ID)
	}
}

func TestServeValidation(t *testing.T) {
	ts := testServer(t, 1, "")
	cases := []string{
		`not json`,
		`{"min_accuracy": -5}`,
		`{"min_accuracy": 150}`,
		`{"min_accuracy": 78, "max_latency_ms": -1}`,
		`{"deadline_ms": -10}`,
		`{"policy": "telepathy"}`,
		`{"min_accuracy": 78, "max_latency": 5}`, // unknown field
		`{"bogus_field": 1}`,
	}
	for _, body := range cases {
		resp, _ := postServe(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestPerRequestPolicy(t *testing.T) {
	// Deployment default is strict accuracy; a per-request "lat" policy
	// with a generous budget must serve the MOST accurate SubNet, which
	// the default would never pick for a trivial accuracy floor.
	ts := testServer(t, 1, "")
	var frontier []FrontierEntry
	getJSON(t, ts, "/v1/frontier", &frontier)
	top := frontier[len(frontier)-1].Accuracy
	_, lat := postServe(t, ts, `{"min_accuracy": 0, "max_latency_ms": 1000, "policy": "lat"}`)
	if lat.Accuracy != top {
		t.Errorf("policy=lat served %.2f%%, want the top SubNet %.2f%%", lat.Accuracy, top)
	}
	_, acc := postServe(t, ts, `{"min_accuracy": 0, "max_latency_ms": 1000}`)
	if acc.Accuracy == top {
		t.Error("default strict-accuracy served the most accurate SubNet for a trivial floor")
	}
}

func TestDeadlineTightensBudget(t *testing.T) {
	// The deterministic half: deadline_ms tightens the scheduler budget.
	req := ServeRequest{MinAccuracy: 0, MaxLatencyMS: 10000, DeadlineMS: 3, Policy: "lat"}
	q, err := req.query(0)
	if err != nil {
		t.Fatal(err)
	}
	if q.MaxLatency != 3e-3 {
		t.Fatalf("budget %.4fs, want 0.003s (tightened by deadline)", q.MaxLatency)
	}
	req = ServeRequest{MaxLatencyMS: 2, DeadlineMS: 50}
	if q, err = req.query(1); err != nil || q.MaxLatency != 2e-3 {
		t.Fatalf("budget %.4fs err=%v, want the tighter max_latency_ms 0.002s", q.MaxLatency, err)
	}
	// The live half: a 3ms deadline either serves within the tightened
	// budget or — if wall clock ran out first (slow/raced runners) —
	// answers 504. Both prove the deadline is enforced.
	ts := testServer(t, 1, "")
	resp, out := postServe(t, ts, `{"min_accuracy": 0, "max_latency_ms": 10000, "deadline_ms": 3, "policy": "lat"}`)
	switch resp.StatusCode {
	case http.StatusOK:
		if out.LatencyMS > 3+1e-9 {
			t.Errorf("deadline ignored: served %.2f ms against a 3 ms budget", out.LatencyMS)
		}
	case http.StatusGatewayTimeout:
		// Deadline expired before dispatch: cancellation path exercised.
	default:
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestServeBatchNDJSON(t *testing.T) {
	ts := testServer(t, 2, "")
	body := strings.Join([]string{
		`{"min_accuracy": 78, "max_latency_ms": 10}`,
		`{"min_accuracy": 76, "max_latency_ms": 10}`,
		`{"min_accuracy": 79, "max_latency_ms": 10, "policy": "acc"}`,
	}, "\n")
	resp, err := http.Post(ts.URL+"/v1/serve/batch", "application/x-ndjson",
		bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var outs []ServeResponse
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r ServeResponse
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		outs = append(outs, r)
	}
	if len(outs) != 3 {
		t.Fatalf("%d response lines, want 3", len(outs))
	}
	for i := 1; i < len(outs); i++ {
		if outs[i].ID != outs[i-1].ID+1 {
			t.Errorf("batch ids not sequential: %d then %d", outs[i-1].ID, outs[i].ID)
		}
	}
	if outs[0].Accuracy < 78 || outs[2].Accuracy < 79 {
		t.Errorf("batch outcomes out of order: %+v", outs)
	}
}

func TestServeBatchValidation(t *testing.T) {
	ts := testServer(t, 1, "")
	for _, body := range []string{
		"",
		`{"min_accuracy": 78}` + "\n" + `{"min_accuracy": 150}`,
		`{"min_accuracy": 78}` + "\nnot json",
	} {
		resp, err := http.Post(ts.URL+"/v1/serve/batch", "application/x-ndjson",
			bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestFrontierEndpoint(t *testing.T) {
	ts := testServer(t, 1, "")
	var out []FrontierEntry
	getJSON(t, ts, "/v1/frontier", &out)
	if len(out) != 7 {
		t.Fatalf("%d frontier entries", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].Accuracy <= out[i-1].Accuracy {
			t.Error("frontier not sorted by accuracy")
		}
	}
}

func TestCacheAndStatsEndpoints(t *testing.T) {
	ts := testServer(t, 1, "")
	for i := 0; i < 6; i++ {
		postServe(t, ts, `{"min_accuracy": 79, "max_latency_ms": 10}`)
	}
	var cache core.CacheView
	getJSON(t, ts, "/v1/cache", &cache)
	if !cache.HasBuffer || cache.Name == "" || cache.SizeMB <= 0 {
		t.Fatalf("cache response %+v", cache)
	}
	var stats StatsResponse
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.Queries != 6 || stats.AvgLatencyMS <= 0 || stats.AccuracySLO != 1 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.Replicas != 1 || stats.Router != "round-robin" {
		t.Fatalf("stats topology %+v", stats)
	}
}

func TestReplicasEndpoint(t *testing.T) {
	ts := testServer(t, 3, core.RouterRoundRobin)
	for i := 0; i < 9; i++ {
		postServe(t, ts, `{"min_accuracy": 78, "max_latency_ms": 10}`)
	}
	var reps []core.ReplicaView
	getJSON(t, ts, "/v1/replicas", &reps)
	if len(reps) != 3 {
		t.Fatalf("%d replicas", len(reps))
	}
	total := 0
	for _, r := range reps {
		total += r.Queries
		if r.Queries != 3 {
			t.Errorf("replica %d served %d, want 3 under round-robin", r.ID, r.Queries)
		}
		if r.QueueDepth != 0 {
			t.Errorf("replica %d queue depth %d at rest", r.ID, r.QueueDepth)
		}
		if r.Cache.Name == "" || !r.Cache.HasBuffer {
			t.Errorf("replica %d cache state invisible: %+v", r.ID, r.Cache)
		}
		if r.AvgHitRatio < 0 || r.AvgHitRatio > 1 {
			t.Errorf("replica %d hit ratio %.3f", r.ID, r.AvgHitRatio)
		}
	}
	if total != 9 {
		t.Errorf("replicas served %d total, want 9", total)
	}
}

func TestMethodRouting(t *testing.T) {
	ts := testServer(t, 1, "")
	for _, path := range []string{"/v1/serve", "/v1/serve/batch"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("GET %s should not succeed", path)
		}
	}
}

// TestConcurrentServes fires 100 parallel requests at a 4-replica
// cluster (run with -race in CI): every request must succeed, and the
// folded stats must account for all of them.
func TestConcurrentServes(t *testing.T) {
	ts := testServer(t, 4, core.RouterRoundRobin)
	const n = 100
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/serve", "application/json",
				bytes.NewBufferString(`{"min_accuracy": 77, "max_latency_ms": 10}`))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var stats StatsResponse
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.Queries != n {
		t.Fatalf("served %d, want %d", stats.Queries, n)
	}
	var reps []core.ReplicaView
	getJSON(t, ts, "/v1/replicas", &reps)
	total := 0
	for _, r := range reps {
		total += r.Queries
		if r.Queries != n/4 {
			t.Errorf("replica %d served %d, want %d under round-robin", r.ID, r.Queries, n/4)
		}
	}
	if total != n {
		t.Fatalf("replica counts sum to %d, want %d", total, n)
	}
}

func postSimulate(t *testing.T, ts *httptest.Server, body string) (*http.Response, SimulateResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	var out SimulateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, out
}

func TestSimulateEndpoint(t *testing.T) {
	ts := testServer(t, 2, core.RouterLeastLoaded)
	// Poisson overload with drops: every query accounted for, tails and
	// goodput populated.
	resp, out := postSimulate(t, ts, `{
		"queries": 80, "process": "poisson", "rate_qps": 800,
		"max_latency_ms": 8, "load_aware": true, "drop": true,
		"queue": 4, "admission": "shed-oldest", "seed": 3,
		"router": "least-loaded"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Queries != 80 || out.Served+out.Dropped != 80 {
		t.Fatalf("accounting off: %+v", out)
	}
	if out.Rejected+out.Shed+out.DroppedLate != out.Dropped {
		t.Fatalf("drop reasons don't sum: %+v", out)
	}
	if out.Served > 0 && out.P99E2EMS <= 0 {
		t.Errorf("p99 e2e missing: %+v", out)
	}
	if out.Router != "least-loaded" {
		t.Errorf("router %q", out.Router)
	}
	// An empty router field keeps the deployment's configured policy
	// instead of silently falling back to round-robin.
	_, def := postSimulate(t, ts, `{"queries": 5, "rate_qps": 100}`)
	if def.Router != "least-loaded" {
		t.Errorf("default sim router %q, want the deployment's least-loaded", def.Router)
	}
	if len(out.ReplicaQueries) != 2 {
		t.Errorf("replica accounting %v", out.ReplicaQueries)
	}
	if out.MakespanS <= 0 || out.OfferedQPS <= 0 {
		t.Errorf("timing aggregates missing: %+v", out)
	}
}

func TestSimulateTraceReplay(t *testing.T) {
	ts := testServer(t, 1, "")
	resp, out := postSimulate(t, ts, `{
		"process": "trace",
		"trace": [
			{"arrival_s": 0, "min_accuracy": 60, "max_latency_ms": 50},
			{"arrival_s": 0.01, "min_accuracy": 60, "max_latency_ms": 50},
			{"arrival_s": 0.02, "min_accuracy": 60, "max_latency_ms": 50}
		]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Queries != 3 || out.Served != 3 {
		t.Fatalf("trace replay served %d/%d", out.Served, out.Queries)
	}
	if out.AvgAccuracy < 60 {
		t.Errorf("avg accuracy %.1f below the trace floor", out.AvgAccuracy)
	}
}

// badSimulateBodies are /v1/simulate bodies the handler must refuse
// with a 400; FuzzSimulateStream seeds its corpus with them.
var badSimulateBodies = map[string]string{
	"missing queries":        `{"process": "poisson", "rate_qps": 100}`,
	"bad process":            `{"queries": 5, "process": "lunar", "rate_qps": 100}`,
	"zero rate":              `{"queries": 5, "process": "poisson"}`,
	"negative queue":         `{"queries": 5, "rate_qps": 100, "queue": -1}`,
	"bad admission":          `{"queries": 5, "rate_qps": 100, "admission": "lifo"}`,
	"bad router":             `{"queries": 5, "rate_qps": 100, "router": "carousel"}`,
	"unknown field":          `{"queries": 5, "rate_qps": 100, "turbo": true}`,
	"bad accuracy":           `{"queries": 5, "rate_qps": 100, "min_accuracy": 120}`,
	"trace wrong mode":       `{"queries": 2, "rate_qps": 100, "trace": [{"arrival_s": 0}]}`,
	"empty trace":            `{"process": "trace"}`,
	"bad trace order":        `{"process": "trace", "trace": [{"arrival_s": 1}, {"arrival_s": 0}]}`,
	"trace point negative":   `{"process": "trace", "trace": [{"arrival_s": 0, "min_accuracy": -5, "max_latency_ms": -1}]}`,
	"trace point accuracy":   `{"process": "trace", "trace": [{"arrival_s": 0}, {"arrival_s": 1, "min_accuracy": 500}]}`,
	"negative cohort budget": `{"queries": 5, "process": "cohorts", "cohorts": "rate=10,budget=-5"}`,
}

func TestSimulateValidation(t *testing.T) {
	ts := testServer(t, 1, "")
	for name, body := range badSimulateBodies {
		resp, _ := postSimulate(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// A bad trace point is named by its index.
	var req SimulateRequest
	if err := json.Unmarshal([]byte(badSimulateBodies["trace point accuracy"]), &req); err != nil {
		t.Fatal(err)
	}
	if _, err := req.stream(nil); err == nil || !strings.Contains(err.Error(), "trace point 1") {
		t.Errorf("bad trace point: error %v, want one naming trace point 1", err)
	}
}

// hostileSimulateBodies used to spin, pin or crash the handler; each is
// now a prompt 400.
var hostileSimulateBodies = map[string]string{
	"autoscale interval 1e-300": `{"queries":10,"rate_qps":100,"autoscale_min":1,"autoscale_max":2,"autoscale_interval_s":1e-300}`,
	"a million cohorts":         `{"queries":10,"process":"cohorts","cohorts":"n=1000000,rate=1"}`,
	"rate 1e308":                `{"queries":10,"rate_qps":1e308}`,
	"diurnal rate 1e-310":       `{"queries":1,"process":"diurnal","rate_qps":1e-310,"amplitude":0.5,"period_s":1}`,
	"diurnal rate 1e308":        `{"queries":1,"process":"diurnal","rate_qps":1e308,"amplitude":1,"period_s":1}`,
	"onoff burst 1e-300":        `{"queries":1,"process":"onoff","burst_rate_qps":1e-300,"mean_on_s":1,"mean_off_s":1}`,
}

// TestSimulateHostileBodies: bodies under 120 bytes that used to spin
// the handler forever (an autoscale interval below the virtual clock's
// resolution; diurnal and on/off rates whose draws overflow or never
// land), pin it (a million-cohort population) or answer a plain-text
// 500 (a rate whose offered load overflows to +Inf) are each a prompt
// 400 with the usual error object, and the server answers the next
// simulation.
func TestSimulateHostileBodies(t *testing.T) {
	dep, err := core.DeployCluster(
		core.DeployOptions{Workload: core.MobileNetV3},
		core.ClusterOptions{Replicas: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(dep))
	t.Cleanup(ts.Close)
	client := &http.Client{Timeout: 5 * time.Second}
	for name, body := range hostileSimulateBodies {
		resp, err := client.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		var msg map[string]string
		err = json.NewDecoder(resp.Body).Decode(&msg)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if err != nil || msg["error"] == "" {
			t.Errorf("%s: body is not the JSON error object (%v)", name, err)
		}
	}
	if resp, out := postSimulate(t, ts, `{"queries": 4, "rate_qps": 100, "max_latency_ms": 8}`); resp.StatusCode != http.StatusOK || out.Queries != 4 {
		t.Errorf("simulation after the hostile bodies: status %d, %d queries", resp.StatusCode, out.Queries)
	}
	// The drained run released every reservation it took.
	for _, rep := range dep.Cluster.Replicas() {
		if n := rep.QueueDepth(); n != 0 {
			t.Errorf("replica %d still holds %d reservations", rep.ID(), n)
		}
	}
}

// TestSimulateBodyCap: a trace past the body cap is a 413 with the usual
// error object — refused while still being read, not after it has been
// materialized — and the server answers the next simulation.
func TestSimulateBodyCap(t *testing.T) {
	ts := testServer(t, 1, "")
	point := `{"arrival_s":0},`
	huge := `{"process":"trace","trace":[` + strings.Repeat(point, maxBatchBody/len(point)+1) + `{"arrival_s":0}]}`
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	var msg map[string]string
	err = json.NewDecoder(resp.Body).Decode(&msg)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("%d-byte trace: status %d, want 413", len(huge), resp.StatusCode)
	}
	if err != nil || msg["error"] == "" {
		t.Errorf("413 body is not the JSON error object (%v)", err)
	}
	if resp, out := postSimulate(t, ts, `{"queries": 4, "rate_qps": 100, "max_latency_ms": 8}`); resp.StatusCode != http.StatusOK || out.Queries != 4 {
		t.Errorf("simulation after the 413: status %d, %d queries", resp.StatusCode, out.Queries)
	}
}

func TestSimulateDeterministicPerSeed(t *testing.T) {
	// Two identical requests against two fresh deployments must agree
	// bit-for-bit; a different seed must not.
	body := `{"queries": 60, "rate_qps": 500, "max_latency_ms": 8,
		"load_aware": true, "drop": true, "seed": 7}`
	_, a := postSimulate(t, testServer(t, 2, ""), body)
	_, b := postSimulate(t, testServer(t, 2, ""), body)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("same seed diverged:\n%s\n%s", aj, bj)
	}
	_, c := postSimulate(t, testServer(t, 2, ""), strings.Replace(body, `"seed": 7`, `"seed": 8`, 1))
	cj, _ := json.Marshal(c)
	if bytes.Equal(aj, cj) {
		t.Error("different seeds produced identical simulations")
	}
}

// TestSimulateBatching: the max_batch/batch_window_ms knobs drive the
// virtual batch former, batch telemetry lands in the response and in
// /v1/replicas, and malformed knobs are rejected.
func TestSimulateBatching(t *testing.T) {
	ts := testServer(t, 2, core.RouterLeastLoaded)
	body := `{"queries": 80, "process": "poisson", "rate_qps": 800,
		"max_latency_ms": 30, "load_aware": true, "drop": true, "seed": 3,
		"max_batch": 4, "batch_window_ms": 5}`
	resp, out := postSimulate(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Batches == 0 || out.MaxBatchSize < 2 {
		t.Fatalf("800 qps with B=4 never batched: %+v", out)
	}
	if out.AvgBatchSize <= 1 || out.AvgBatchSize > 4 {
		t.Errorf("avg batch %.2f outside (1, 4]", out.AvgBatchSize)
	}
	// An unbatched run on the same deployment reports no occupancy.
	_, solo := postSimulate(t, ts, `{"queries": 20, "rate_qps": 400, "max_latency_ms": 30}`)
	if solo.Batches != 0 {
		t.Errorf("unbatched run reported %d batches", solo.Batches)
	}
	// Validation.
	bad, _ := postSimulate(t, ts, `{"queries": 5, "rate_qps": 100, "max_batch": -1}`)
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("negative max_batch: status %d", bad.StatusCode)
	}
	bad, _ = postSimulate(t, ts, `{"queries": 5, "rate_qps": 100, "batch_window_ms": -2}`)
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("negative batch_window_ms: status %d", bad.StatusCode)
	}
}

// TestBatchedDeploymentTelemetry: a deployment booted with a live batch
// policy surfaces per-replica batch occupancy on /v1/replicas (every
// live serve passes the batch former, so even solo flushes count), and
// /v1/simulate inherits the deployment's B/W as its default former.
func TestBatchedDeploymentTelemetry(t *testing.T) {
	dep, err := core.DeployCluster(
		core.DeployOptions{Workload: core.MobileNetV3},
		core.ClusterOptions{Replicas: 1,
			Batch: &serving.BatchPolicy{MaxBatch: 4, Window: 1e-3}},
	)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(dep))
	t.Cleanup(ts.Close)
	for i := 0; i < 3; i++ {
		resp, _ := postServe(t, ts, `{"min_accuracy": 60}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("serve %d: status %d", i, resp.StatusCode)
		}
	}
	rr, err := http.Get(ts.URL + "/v1/replicas")
	if err != nil {
		t.Fatal(err)
	}
	var reps []core.ReplicaView
	if err := json.NewDecoder(rr.Body).Decode(&reps); err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if len(reps) != 1 || reps[0].Batches == 0 {
		t.Fatalf("batched deployment reported no flushes: %+v", reps)
	}
	if reps[0].AvgBatchSize < 1 || reps[0].MaxBatchSize < 1 {
		t.Errorf("implausible occupancy: %+v", reps[0])
	}
	// Simulate with no explicit knobs inherits the deployment policy.
	_, sim := postSimulate(t, ts, `{"queries": 60, "rate_qps": 2000, "max_latency_ms": 50, "seed": 3}`)
	if sim.Batches == 0 || sim.MaxBatchSize < 2 {
		t.Errorf("simulate did not inherit the deployment batch former: %+v", sim)
	}
	// max_batch 1 forces an unbatched run despite the deployment policy.
	_, solo := postSimulate(t, ts, `{"queries": 20, "rate_qps": 2000, "max_latency_ms": 50, "max_batch": 1}`)
	if solo.Batches != 0 {
		t.Errorf("max_batch 1 still batched: %+v", solo)
	}
}
