package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"time"

	"sushi/internal/accel"
	"sushi/internal/core"
	"sushi/internal/latencytable"
	"sushi/internal/sched"
	"sushi/internal/server"
	"sushi/internal/serving"
)

// The live path is measured level by level: the same seeded queries are
// replayed once per level on a fresh deployment, on one goroutine
// (GOMAXPROCS 1 for the section, so ServeAll's per-replica goroutines
// cost what they cost instead of hiding behind a second core), in
// chunks of replayChunk queries with one span per chunk. A level's self
// time is its cost minus the next level's.

const (
	replayChunk   = 256
	replayQueries = 200 * replayChunk
)

// sinkWriter is the in-memory http.ResponseWriter of the handler level:
// it keeps the status and counts the bytes.
type sinkWriter struct {
	h      http.Header
	status int
	n      int
}

func (s *sinkWriter) Header() http.Header         { return s.h }
func (s *sinkWriter) WriteHeader(code int)        { s.status = code }
func (s *sinkWriter) Write(b []byte) (int, error) { s.n += len(b); return len(b), nil }

// replayInput is the seeded query stream of one live-path section in
// every form a level consumes.
type replayInput struct {
	w      *httpWorkload
	gens   []genQuery
	qs     []sched.Query
	bodies [][]byte
}

func newReplayInput(w *httpWorkload, seed int64) (*replayInput, error) {
	dep, err := w.deploy()
	if err != nil {
		return nil, err
	}
	// The replay stream is the prefix of the workload's pool: the same
	// seeded draws, without generating the half million lines a real
	// round cycles over.
	prefix := *w
	prefix.poolQueries = replayQueries
	gens, _ := prefix.generate(seed, modelSpecs(dep))
	in := &replayInput{w: w, gens: gens}
	in.qs = make([]sched.Query, len(in.gens))
	for i, g := range in.gens {
		in.qs[i] = g.schedQuery(i)
	}
	if w.batchLines > 0 {
		in.bodies = batchBodies(in.gens, replayChunk)
	} else {
		in.bodies = singleBodies(in.gens)
	}
	return in, nil
}

// chunks is the number of replayChunk-sized spans per replay.
func (in *replayInput) chunks() int { return len(in.qs) / replayChunk }

// handlerReplay drives h with in-memory requests built from the bodies:
// one request per chunk for the batch endpoint, one per query
// otherwise. It returns nanoseconds per query and the count of non-200
// replies.
func (in *replayInput) handlerReplay(tr *tracer, name string, parent int, h http.Handler) (float64, int) {
	u := &url.URL{Path: in.w.path()}
	hdr := http.Header{"Content-Type": {"application/json"}}
	var rd bytes.Reader
	rw := &sinkWriter{h: http.Header{}}
	bad := 0
	serve := func(body []byte) {
		rd.Reset(body)
		rw.status = http.StatusOK
		h.ServeHTTP(rw, &http.Request{
			Method: http.MethodPost, URL: u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: hdr, Body: io.NopCloser(&rd), ContentLength: int64(len(body)), Host: "bench", RequestURI: u.Path,
		})
		if rw.status != http.StatusOK {
			bad++
		}
	}
	var total time.Duration
	for c := 0; c < in.chunks(); c++ {
		start := time.Now()
		if in.w.batchLines > 0 {
			serve(in.bodies[c])
		} else {
			for _, body := range in.bodies[c*replayChunk : (c+1)*replayChunk] {
				serve(body)
			}
		}
		total += tr.leaf(name, c, parent, start, replayChunk)
	}
	return float64(total) / float64(len(in.qs)), bad
}

// served is what the cluster-level replay saw, for the outcome counters.
type servedStats struct {
	n, sloMet, feasible, swaps, recaches int
	accSum, hitSum                       float64
	rows                                 map[rowKey]bool
}

func (s *servedStats) add(r serving.Served) {
	s.n++
	if r.LatencyMet && r.AccuracyMet {
		s.sloMet++
	}
	if r.Feasible {
		s.feasible++
	}
	if r.CacheSwapped {
		s.swaps++
	}
	if r.Recached {
		s.recaches++
	}
	s.accSum += r.Accuracy
	s.hitSum += r.HitRatio
	s.rows[rowKey{r.Query.Model, r.SubNet}] = true
}

// clusterReplay serves the stream through Cluster.Serve (or ServeAll,
// a chunk at a time, for the batch endpoint) and returns nanoseconds per
// query, the outcomes and the results themselves (the encode level
// re-renders them).
func (in *replayInput) clusterReplay(tr *tracer, parent int, dep *core.ClusterDeployment) (float64, *servedStats, []serving.Served, error) {
	ctx := context.Background()
	stats := &servedStats{rows: map[rowKey]bool{}}
	out := make([]serving.Served, 0, len(in.qs))
	var total time.Duration
	for c := 0; c < in.chunks(); c++ {
		chunk := in.qs[c*replayChunk : (c+1)*replayChunk]
		start := time.Now()
		if in.w.batchLines > 0 {
			rs, err := dep.Cluster.ServeAll(ctx, chunk)
			if err != nil {
				return 0, nil, nil, err
			}
			out = append(out, rs...)
		} else {
			for _, q := range chunk {
				r, err := dep.Cluster.Serve(ctx, q)
				if err != nil {
					return 0, nil, nil, err
				}
				out = append(out, r)
			}
		}
		total += tr.leaf("serving.cluster_serve", c, parent, start, replayChunk)
	}
	for _, r := range out {
		stats.add(r)
	}
	return float64(total) / float64(len(in.qs)), stats, out, nil
}

// routerReplay replays only the routing decisions, with the reservation
// pattern of the endpoint: ServeAll reserves a whole chunk before any
// query runs, Serve reserves and releases one query at a time. It
// returns nanoseconds per query and the picks (the replica level
// follows them).
func (in *replayInput) routerReplay(tr *tracer, parent int, dep *core.ClusterDeployment) (float64, []int, error) {
	router, err := core.NewRouter(in.w.routerName, 1)
	if err != nil {
		return 0, nil, err
	}
	reps := dep.Cluster.Replicas()
	picks := make([]int, len(in.qs))
	var total time.Duration
	for c := 0; c < in.chunks(); c++ {
		lo := c * replayChunk
		start := time.Now()
		for i, q := range in.qs[lo : lo+replayChunk] {
			ri := router.Pick(q, reps)
			picks[lo+i] = ri
			if in.w.batchLines > 0 {
				reps[ri].Reserve()
			}
		}
		total += tr.leaf("serving.router_pick", c, parent, start, replayChunk)
		if in.w.batchLines > 0 {
			for _, ri := range picks[lo : lo+replayChunk] {
				reps[ri].Release()
			}
		}
	}
	return float64(total) / float64(len(in.qs)), picks, nil
}

// replicaReplay serves every query on the replica the router picked,
// through Replica.Serve.
func (in *replayInput) replicaReplay(tr *tracer, parent int, dep *core.ClusterDeployment, picks []int) (float64, error) {
	ctx := context.Background()
	reps := dep.Cluster.Replicas()
	var total time.Duration
	for c := 0; c < in.chunks(); c++ {
		lo := c * replayChunk
		start := time.Now()
		for i, q := range in.qs[lo : lo+replayChunk] {
			if _, err := reps[picks[lo+i]].Serve(ctx, q); err != nil {
				return 0, err
			}
		}
		total += tr.leaf("serving.replica_serve", c, parent, start, replayChunk)
	}
	return float64(total) / float64(len(in.qs)), nil
}

// tenantKey names one (replica, model) serving stack.
type tenantKey struct {
	replica int
	model   string
}

// byTenant splits the stream into each serving stack's own subsequence.
func (in *replayInput) byTenant(picks []int) map[tenantKey][]sched.Query {
	out := map[tenantKey][]sched.Query{}
	for i, q := range in.qs {
		k := tenantKey{picks[i], q.Model}
		out[k] = append(out[k], q)
	}
	return out
}

// systemReplay serves each stack's subsequence through System.Serve,
// inside the replica's own inspection hook (so no System outlives it).
func (in *replayInput) systemReplay(tr *tracer, parent int, dep *core.ClusterDeployment, groups map[tenantKey][]sched.Query) (float64, error) {
	var total time.Duration
	var firstErr error
	for ri, rep := range dep.Cluster.Replicas() {
		rep.InspectTenants(func(model string, _ int64, sys *serving.System) {
			qs := groups[tenantKey{ri, model}]
			if len(qs) == 0 || firstErr != nil {
				return
			}
			start := time.Now()
			for _, q := range qs {
				if _, err := sys.Serve(q); err != nil {
					firstErr = err
					return
				}
			}
			total += tr.leaf("serving.system_serve", ri, parent, start, len(qs))
		})
	}
	return float64(total) / float64(len(in.qs)), firstErr
}

// tenantTable is what the two innermost levels need from a serving
// stack: its (immutable, shared) latency table, the boot cache column,
// the deployment's default policy and the tenant's Persistent Buffer
// share.
type tenantTable struct {
	table *latencytable.Table
	col   int
	share int64
}

func tenantTables(dep *core.ClusterDeployment) map[tenantKey]tenantTable {
	out := map[tenantKey]tenantTable{}
	for ri, rep := range dep.Cluster.Replicas() {
		rep.InspectTenants(func(model string, share int64, sys *serving.System) {
			out[tenantKey{ri, model}] = tenantTable{table: sys.Table(), col: sys.Scheduler().CacheColumn(), share: share}
		})
	}
	return out
}

// schedReplay runs each stack's subsequence through a scheduler of its
// own, built over the stack's table exactly as serving.New builds it.
func (in *replayInput) schedReplay(tr *tracer, parent int, tables map[tenantKey]tenantTable, groups map[tenantKey][]sched.Query, policy sched.Policy) (float64, error) {
	var total time.Duration
	for k, qs := range groups {
		tt := tables[k]
		s, err := sched.New(tt.table, sched.Options{Policy: policy, Q: 4, InitialColumn: tt.col, StateAware: true})
		if err != nil {
			return 0, err
		}
		if tt.share > 0 {
			s.SetCacheBudget(tt.share)
		}
		start := time.Now()
		for _, q := range qs {
			if _, err := s.Schedule(q); err != nil {
				return 0, err
			}
		}
		total += tr.leaf("sched.schedule", k.replica, parent, start, len(qs))
	}
	return float64(total) / float64(len(in.qs)), nil
}

var selectSink int

// selectReplay runs the table lookups the strict policies reduce to:
// MostAccurateWithin for a latency-bound query, FastestFeasible for an
// accuracy-bound one, both for a min-energy query (which needs both
// constraints).
func (in *replayInput) selectReplay(tr *tracer, parent int, tables map[tenantKey]tenantTable, groups map[tenantKey][]sched.Query, policy sched.Policy) float64 {
	var total time.Duration
	for k, qs := range groups {
		tt := tables[k]
		start := time.Now()
		for _, q := range qs {
			p := policy
			if q.Policy != nil {
				p = *q.Policy
			}
			if p != sched.StrictAccuracy {
				row, _ := tt.table.MostAccurateWithin(q.MaxLatency, tt.col)
				selectSink += row
			}
			if p != sched.StrictLatency {
				row, _ := tt.table.FastestFeasible(q.MinAccuracy, tt.col)
				selectSink += row
			}
		}
		total += tr.leaf("latencytable.select", k.replica, parent, start, len(qs))
	}
	return float64(total) / float64(len(in.qs))
}

// codecReplay decodes every request body into ServeRequest values and
// encodes every outcome as a ServeResponse, the way the handler does.
func (in *replayInput) codecReplay(tr *tracer, parent int, served []serving.Served) (decodeNS, encodeNS float64, err error) {
	var rd bytes.Reader
	var dec, enc time.Duration
	per := len(in.qs) / len(in.bodies)
	for i, body := range in.bodies {
		start := time.Now()
		rd.Reset(body)
		d := json.NewDecoder(&rd)
		d.DisallowUnknownFields()
		for j := 0; j < per; j++ {
			var req server.ServeRequest
			if err := d.Decode(&req); err != nil {
				return 0, 0, fmt.Errorf("decode level: body %d: %w", i, err)
			}
		}
		dec += tr.leaf("server.json_decode", i, parent, start, per)
	}
	for c := 0; c < in.chunks(); c++ {
		start := time.Now()
		e := json.NewEncoder(io.Discard)
		for _, r := range served[c*replayChunk : (c+1)*replayChunk] {
			if in.w.batchLines == 0 {
				e = json.NewEncoder(io.Discard) // the single endpoint builds one per reply
			}
			if err := e.Encode(server.ServeResponse{
				ID: r.Query.ID, Model: r.Query.Model, SubNet: r.SubNet, Accuracy: r.Accuracy, LatencyMS: r.Latency * 1e3,
				Feasible: r.Feasible, LatencyMet: r.LatencyMet, AccuracyMet: r.AccuracyMet, HitRatio: r.HitRatio, CacheSwapped: r.CacheSwapped,
			}); err != nil {
				return 0, 0, err
			}
		}
		enc += tr.leaf("server.json_encode", c, parent, start, replayChunk)
	}
	n := float64(len(in.qs))
	return float64(dec) / n, float64(enc) / n, nil
}

// mallocs reads the cumulative heap allocation count.
func mallocs() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// livePath runs the level replays `reps` times (a fresh deployment per
// level per repeat) and reports the per-level and self costs, the
// outcome counters and the tracing overhead.
func (l *ledger) livePath(w *httpWorkload, reps, parent int) error {
	in, err := newReplayInput(w, l.seed)
	if err != nil {
		return err
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	var stats *servedStats
	for rep := 0; rep < reps; rep++ {
		sec := l.tr.begin("bench.live_path_replay", rep, parent)

		harness, _ := in.handlerReplay(l.tr, "bench.handler_harness", sec, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
		dep, err := w.deploy()
		if err != nil {
			return err
		}
		m0, _ := mallocs()
		handler, bad := in.handlerReplay(l.tr, "server.handler", sec, server.New(dep))
		m1, _ := mallocs()
		if bad > 0 {
			l.res.Failed += int64(bad)
			note(&l.res.Notes, fmt.Sprintf("handler level: %d non-200 replies", bad))
		}
		l.res.Attempted += int64(len(in.qs))
		add("server.handler_ns_per_query", handler-harness)
		add("server.allocs_per_query", float64(m1-m0)/float64(len(in.qs)))

		if dep, err = w.deploy(); err != nil {
			return err
		}
		cluster, st, served, err := in.clusterReplay(l.tr, sec, dep)
		if err != nil {
			return err
		}
		stats = st
		add("serving.cluster_serve_ns_per_query", cluster)

		if dep, err = w.deploy(); err != nil {
			return err
		}
		pick, picks, err := in.routerReplay(l.tr, sec, dep)
		if err != nil {
			return err
		}
		add("serving.router_pick_ns_per_query", pick)
		replica, err := in.replicaReplay(l.tr, sec, dep, picks)
		if err != nil {
			return err
		}

		if dep, err = w.deploy(); err != nil {
			return err
		}
		groups := in.byTenant(picks)
		tables := tenantTables(dep)
		system, err := in.systemReplay(l.tr, sec, dep, groups)
		if err != nil {
			return err
		}
		schedule, err := in.schedReplay(l.tr, sec, tables, groups, w.policy)
		if err != nil {
			return err
		}
		add("sched.schedule_ns_per_query", schedule)
		add("latencytable.select_ns_per_query", in.selectReplay(l.tr, sec, tables, groups, w.policy))

		dec, enc, err := in.codecReplay(l.tr, sec, served)
		if err != nil {
			return err
		}
		add("server.json_decode_ns_per_query", dec)
		add("server.json_encode_ns_per_query", enc)

		add("bench.handler", handler-harness)
		add("bench.replica", replica)
		add("bench.system", system)
		l.tr.end(sec, len(in.qs))
	}
	// Self times come from the levels' medians, so they add up to the
	// handler level exactly (less whatever had to be clamped).
	levels := []float64{median(samples["bench.handler"]), median(samples["serving.cluster_serve_ns_per_query"]),
		median(samples["bench.replica"]), median(samples["bench.system"]), median(samples["sched.schedule_ns_per_query"])}
	self, clamped := selfTimes(levels)
	if clamped > 0 {
		note(&l.res.Notes, fmt.Sprintf("level subtraction clamped %.0f ns/query of negative self time to zero", clamped))
	}
	l.res.set("server.self_ns_per_query", self[0], "ns")
	l.res.set("serving.cluster_self_ns_per_query", self[1], "ns")
	l.res.set("serving.replica_self_ns_per_query", self[2], "ns")
	l.res.set("serving.system_self_ns_per_query", self[3], "ns")
	for name, vs := range samples {
		switch {
		case strings.HasPrefix(name, "bench."):
		case name == "server.allocs_per_query":
			l.res.set(name, median(vs), "count")
		default:
			l.res.set(name, median(vs), "ns")
		}
	}

	n := float64(stats.n)
	l.res.set("serving.cache_swaps_per_kquery", 1e3*float64(stats.swaps)/n, "count")
	l.res.set("serving.recaches_per_kquery", 1e3*float64(stats.recaches)/n, "count")
	l.res.set("serving.hit_ratio_mean", stats.hitSum/n, "share")
	l.res.set("serving.feasible_share", float64(stats.feasible)/n, "share")
	l.res.set("serving.distinct_rows_served", float64(len(stats.rows)), "count")
	l.res.set("serving.slo_attainment", float64(stats.sloMet)/n, "share")
	l.res.set("serving.served_accuracy", stats.accSum/n, "pct")

	// Tracing overhead: the cluster level again, with and without a
	// tracer, alternating on fresh deployments. Interference only ever
	// slows a run down, so the fastest run of each kind is compared.
	best := map[bool]float64{}
	for i := 0; i < 3; i++ {
		for _, tr := range []*tracer{nil, l.tr} {
			dep, err := w.deploy()
			if err != nil {
				return err
			}
			sec := tr.begin("bench.trace_overhead", i, parent)
			start := time.Now()
			if _, _, _, err := in.clusterReplay(tr, sec, dep); err != nil {
				return err
			}
			d := time.Since(start).Seconds()
			tr.end(sec, len(in.qs))
			if b, ok := best[tr != nil]; !ok || d < b {
				best[tr != nil] = d
			}
		}
	}
	l.res.set("trace.overhead_share", best[true]/best[false]-1, "share")
	return nil
}

// accelPass times one accelerator-model pass per frontier SubNet of the
// workload's default model, under its boot cache column.
func (l *ledger) accelPass(dep *core.ClusterDeployment, parent int) error {
	var table *latencytable.Table
	var cfg accel.Config
	var col int
	dep.Cluster.Replicas()[0].Inspect(func(sys *serving.System) {
		table, cfg, col = sys.Table(), sys.Simulator().Config(), sys.Scheduler().CacheColumn()
	})
	sim, err := accel.NewSimulator(cfg)
	if err != nil {
		return err
	}
	if cfg.HasPB() {
		if err := sim.SetCachedShared(table.Graphs[col]); err != nil {
			return err
		}
	}
	const passes = 200
	var rep accel.Report
	var total time.Duration
	for i, sn := range table.SubNets {
		start := time.Now()
		for k := 0; k < passes; k++ {
			if err := sim.ServeBatchInto(&rep, sn, 1); err != nil {
				return err
			}
		}
		total += l.tr.leaf("accel.pass", i, parent, start, passes)
	}
	l.res.set("accel.pass_us", float64(total.Microseconds())/float64(passes*len(table.SubNets)), "us")
	return nil
}

// serveAllScaling compares ServeAll's throughput on four replicas with
// one (ROADMAP's flat-scaling finding), at full GOMAXPROCS.
func (l *ledger) serveAllScaling(parent int) error {
	const chunks = 100
	qs := make([]sched.Query, replayChunk)
	perQuery := map[int]float64{}
	for _, r := range []int{1, 4} {
		dep, err := deployMobileNet(core.ClusterOptions{Replicas: r})
		if err != nil {
			return err
		}
		spec := modelSpecs(dep)[0]
		for i, g := range genClasses(subSeed(l.seed, 2), spec, replayChunk) {
			qs[i] = g.schedQuery(i)
		}
		start := time.Now()
		for c := 0; c < chunks; c++ {
			if _, err := dep.Cluster.ServeAll(context.Background(), qs); err != nil {
				return err
			}
		}
		perQuery[r] = float64(l.tr.leaf("serving.serveall", r, parent, start, chunks*replayChunk)) / (chunks * replayChunk)
	}
	l.res.set("serving.serveall_scaling_x", perQuery[1]/perQuery[4], "x")
	return nil
}
