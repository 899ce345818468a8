package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"sushi/internal/calib"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded from the benchmark's side of the layer boundary (the program
// itself carries no tracing yet), kept in memory and written out when
// the run ends.
type span struct {
	// Name is "<layer>.<call>", e.g. "serving.cluster_serve".
	Name string `json:"name"`
	// ID is shared by the spans of one request, chunk or round, so the
	// levels of one replayed chunk can be lined up.
	ID int `json:"id"`
	// Parent is the index of the span this one was made under (-1 for a
	// root).
	Parent int `json:"parent"`
	// StartNS and EndNS are nanoseconds since the tracer was created.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Count is how many work items (queries, images, bytes' worth of
	// calls) the span covered.
	Count int `json:"count,omitempty"`
}

// tracer collects spans. A nil tracer records nothing, which is how the
// same replay code measures its own tracing overhead.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its index (the handle end takes, and
// the parent of spans made under it).
func (t *tracer) begin(name string, id, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, StartNS: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// end closes a span, noting how many work items it covered.
func (t *tracer) end(i, count int) {
	if t == nil {
		return
	}
	t.spans[i].EndNS = int64(time.Since(t.t0))
	t.spans[i].Count = count
}

// leaf records a finished childless span that began at start and ends
// now, and returns its duration (also with a nil tracer, so replays
// read their timings the same way traced or not).
func (t *tracer) leaf(name string, id, parent int, start time.Time, count int) time.Duration {
	d := time.Since(start)
	if t != nil {
		s := int64(start.Sub(t.t0))
		t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, StartNS: s, EndNS: s + int64(d), Count: count})
	}
	return d
}

// write dumps the spans as one JSON array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledger is one traced run's working state.
type ledger struct {
	tr   *tracer
	res  *runResult
	root string
	seed int64
}

// repeats is how often a section runs: three times where the workload's
// own path goes through it, once elsewhere.
func repeats(onPath bool) int {
	if onPath {
		return 3
	}
	return 1
}

// runTraced is the per-layer run (--trace 1): it times the calls the
// benchmark makes into each layer's public functions — the live-path
// level replays, a real HTTP round with sampled client phases, the simq
// stage calls and the kernel calls — and reports every per-layer metric.
// The workload picks the configuration (which fleet, which mix, which
// engine options) and which sections get the repeats; layers off the
// workload's path are still measured, once, so a result always carries
// the whole ledger. End-to-end metrics are never taken here.
func runTraced(w workloadDef, root string, seed int64, seconds float64, traceOut string, res *runResult) error {
	l := &ledger{tr: newTracer(), res: res, root: root, seed: seed}
	run := l.tr.begin("bench.traced_run", 0, -1)

	// Where the workload has no configuration of its own for a plane,
	// the heavier of the two stands in.
	hw, sw := w.http, w.sim
	if hw == nil {
		hw = &httpBatchMT
	}
	if sw == nil {
		sw = &simOverload
	}
	// Deploy first: the cold numbers need a process that has built no
	// latency table yet.
	if err := l.deployCosts(hw); err != nil {
		return err
	}
	l.hostYardsticks()
	if err := l.livePath(hw, repeats(w.http != nil), run); err != nil {
		return err
	}
	if err := l.httpRound(hw, time.Duration(seconds/5*float64(time.Second)), run); err != nil {
		return err
	}
	if err := l.simStages(sw, repeats(w.sim != nil), run); err != nil {
		return err
	}
	if err := l.dataPlane(repeats(w.http == nil && w.sim == nil), run); err != nil {
		return err
	}
	l.tr.end(run, 1)
	res.Samples = fmt.Sprintf("traced run, %d spans: figures are medians over each section's repeats", len(l.tr.spans))
	if traceOut != "" {
		if err := l.tr.write(traceOut); err != nil {
			return err
		}
	}
	return nil
}

// memcpyProbeBytes streams well past the last-level cache.
const memcpyProbeBytes = 64 << 20

// hostYardsticks measures the machine, not the system: a fixed
// arithmetic spin and a large copy. They are for reading the other
// numbers across machines and noisy neighbours.
func (l *ledger) hostYardsticks() {
	sp := l.tr.begin("host.calib_spin", 0, 0)
	ns := calib.CalibSpin()
	l.tr.end(sp, 1)
	l.res.set("host.calib_spin_ms", float64(ns)/1e6, "ms")

	src, dst := make([]byte, memcpyProbeBytes), make([]byte, memcpyProbeBytes)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // fault the pages in
	var times []float64
	for i := 0; i < 5; i++ {
		sp := l.tr.begin("host.memcpy", i, 0)
		start := time.Now()
		copy(dst, src)
		times = append(times, time.Since(start).Seconds())
		l.tr.end(sp, memcpyProbeBytes)
	}
	// Bytes moved: one read and one write of the buffer, computed from
	// its size.
	l.res.set("host.memcpy_gbps", 2*memcpyProbeBytes/median(times)/1e9, "GB/s")
	runtime.KeepAlive(dst)
}
