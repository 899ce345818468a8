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
		"sushi_batches_total", "sushi_batch_size_mean", "sushi_cache_swaps_total", "sushi_recaches_total", "sushi_panics_total"} {
		if before.kind[name] == "" || after.kind[name] == "" {
			t.Errorf("family %s missing", name)
		}
	}
	if len(after.kind) != 9 {
		t.Errorf("%d families, want 9: %v", len(after.kind), after.kind)
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

// TestMetricsLabelEscaping: a class label carrying the text format's
// three escapes comes out escaped.
func TestMetricsLabelEscaping(t *testing.T) {
	got := string(appendSample(nil, "x", "class", "a\\b\"c\nd", 1))
	if want := `x{class="a\\b\"c\nd"} 1` + "\n"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}
