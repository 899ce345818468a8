package server

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"sushi/internal/core"
	"sushi/internal/sched"
	"sushi/internal/serving"
)

// scrape is one GET /metrics, parsed: each family's type, and each
// series' value keyed by its name and labels.
type scrape struct {
	kind   map[string]string
	series map[string]float64
}

func getMetrics(t *testing.T, ts *httptest.Server) scrape {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics: status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	s := scrape{kind: map[string]string{}, series: map[string]float64{}}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(f, " ")
			if _, dup := s.kind[name]; dup {
				t.Errorf("family %s appears twice", name)
			}
			s.kind[name] = kind
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if !ok || err != nil {
			t.Fatalf("sample line %q does not parse", line)
		}
		if name, _, _ := strings.Cut(key, "{"); s.kind[name] == "" {
			t.Errorf("sample %q precedes its family's TYPE line", line)
		}
		s.series[key] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMetricsScrape scrapes a two-model fleet twice around N serves,
// some classed, over both serve endpoints: every family appears once,
// no counter decreases, and served + dropped grew by exactly the
// queries sent to each model.
func TestMetricsScrape(t *testing.T) {
	ts := testMultiServer(t)
	before := getMetrics(t, ts)
	sent := map[string]int{}
	for i, model := range []string{"resnet50", "mobilenetv3", "mobilenetv3", "resnet50", "mobilenetv3"} {
		resp, _ := postServe(t, ts, fmt.Sprintf(`{"model": %q, "class": "c%d", "max_latency_ms": 500}`, model, i%2))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("serve %d: status %d", i, resp.StatusCode)
		}
		sent[model]++
	}
	batch := strings.Repeat(`{"model": "mobilenetv3", "min_accuracy": 70}`+"\n", 7) + `{"max_latency_ms": 50}` + "\n"
	resp, err := http.Post(ts.URL+"/v1/serve/batch", "application/x-ndjson", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	sent["mobilenetv3"] += 7
	sent["resnet50"]++
	after := getMetrics(t, ts)

	for _, name := range []string{"sushi_served_total", "sushi_dropped_total", "sushi_class_served_total", "sushi_class_dropped_total",
		"sushi_batches_total", "sushi_batch_size_mean", "sushi_cache_swaps_total", "sushi_recaches_total", "sushi_panics_total",
		"sushi_replica_queue_depth", "sushi_replica_partition_switches_total", "sushi_replica_partition_fill_seconds_total",
		"sushi_replica_recache_fill_seconds_total"} {
		if before.kind[name] == "" || after.kind[name] == "" {
			t.Errorf("family %s missing", name)
		}
	}
	if len(after.kind) != 13 {
		t.Errorf("%d families, want 13: %v", len(after.kind), after.kind)
	}
	for key, v := range before.series {
		name, _, _ := strings.Cut(key, "{")
		if w, ok := after.series[key]; before.kind[name] == "counter" && (!ok || w < v) {
			t.Errorf("counter %s fell from %g to %g (present %t)", key, v, w, ok)
		}
	}
	for model, n := range sent {
		grew := 0.0
		for _, fam := range []string{"sushi_served_total", "sushi_dropped_total"} {
			key := fam + `{model="` + model + `"}`
			grew += after.series[key] - before.series[key]
		}
		if grew != float64(n) {
			t.Errorf("model %s: served + dropped grew by %g, want %d", model, grew, n)
		}
	}
	if got := after.series[`sushi_class_served_total{class="c0"}`]; got != 3 {
		t.Errorf("class c0 served %g, want 3", got)
	}

	// A one-model fleet's tenant is unnamed: model="".
	solo := testServer(t, 1, "")
	if resp, _ := postServe(t, solo, `{"max_latency_ms": 500}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("solo serve: status %d", resp.StatusCode)
	}
	if got := getMetrics(t, solo).series[`sushi_served_total{model=""}`]; got != 1 {
		t.Errorf("one-model fleet served %g, want 1", got)
	}
}

// TestMetricsReplicaFamilies boots a batching, re-caching two-model
// fleet of two replicas with traffic-weighted partitioning. A /v1/serve
// waiting out its batch window shows as one query on a replica's
// queue-depth gauge. Then one-sided traffic makes the partitioner move
// cache, and every per-replica series reads its replica's accessors
// exactly: depth 0 at rest, partition switches and fill seconds, and
// re-cache fill seconds (which include the partitioner's).
func TestMetricsReplicaFamilies(t *testing.T) {
	dep, err := core.DeployCluster(
		core.DeployOptions{Policy: sched.StrictLatency},
		core.ClusterOptions{
			Replicas:  2,
			Models:    []core.Workload{core.ResNet50, core.MobileNetV3},
			Partition: &serving.PartitionPolicy{Mode: serving.PartitionTraffic, Window: 16},
			Recache:   &serving.RecachePolicy{},
			Batch:     &serving.BatchPolicy{MaxBatch: 4, Window: 1},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(dep))
	t.Cleanup(ts.Close)
	depth := func(s scrape) (n float64) {
		for _, rep := range dep.Cluster.Replicas() {
			n += s.series[fmt.Sprintf(`sushi_replica_queue_depth{replica="%d"}`, rep.ID())]
		}
		return n
	}

	served := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/serve", "application/json", strings.NewReader(`{"max_latency_ms": 500}`))
		if err != nil {
			served <- 0
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		served <- resp.StatusCode
	}()
	for deadline := time.Now().Add(5 * time.Second); depth(getMetrics(t, ts)) != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a query waiting out its batch window never showed on the queue-depth gauge")
		}
	}
	if code := <-served; code != http.StatusOK {
		t.Fatalf("batched serve: status %d", code)
	}

	for _, model := range []string{"resnet50", "mobilenetv3"} {
		batch := strings.Repeat(`{"model": "`+model+`", "max_latency_ms": 500}`+"\n", 128)
		resp, err := http.Post(ts.URL+"/v1/serve/batch", "application/x-ndjson", strings.NewReader(batch))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s batch: status %d", model, resp.StatusCode)
		}
	}
	got := getMetrics(t, ts)
	if len(got.series) == 0 || depth(got) != 0 {
		t.Errorf("queue depth %g at rest, want 0", depth(got))
	}
	var switches, fill float64
	for _, rep := range dep.Cluster.Replicas() {
		parts, partSec := rep.PartitionStats()
		_, recacheSec := rep.RecacheStats()
		for fam, want := range map[string]float64{
			"sushi_replica_queue_depth":                  0,
			"sushi_replica_partition_switches_total":     float64(parts),
			"sushi_replica_partition_fill_seconds_total": partSec,
			"sushi_replica_recache_fill_seconds_total":   recacheSec,
		} {
			key := fmt.Sprintf(`%s{replica="%d"}`, fam, rep.ID())
			if v, ok := got.series[key]; !ok || v != want {
				t.Errorf("%s = %g (present %t), want %g", key, v, ok, want)
			}
		}
		if recacheSec < partSec {
			t.Errorf("replica %d: re-cache fill %g s excludes the partitioner's %g s", rep.ID(), recacheSec, partSec)
		}
		switches += float64(parts)
		fill += partSec
	}
	if switches == 0 || fill <= 0 {
		t.Fatalf("vacuous: one-sided traffic moved no cache (%g switches, %g s)", switches, fill)
	}
}

// TestMetricsLabelEscaping: a class label carrying the text format's
// three escapes comes out escaped.
func TestMetricsLabelEscaping(t *testing.T) {
	got := string(appendSample(nil, "x", "class", "a\\b\"c\nd", 1))
	if want := `x{class="a\\b\"c\nd"} 1` + "\n"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}
