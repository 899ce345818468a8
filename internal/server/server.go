// Package server exposes a SUSHI cluster over a v1 HTTP API, the
// integration surface the paper's conclusion points at ("SUSHI can be
// naturally integrated in state-of-the-art ML inference serving
// frameworks"). Queries route across replica accelerators through the
// cluster's dispatcher; queries on one replica serialize exactly as a
// stream serializes onto one physical SushiAccel, while replicas serve
// concurrently. Statistics aggregate per replica and fold on read; no
// query ever executes while a global lock is held (the dispatcher's
// routing lock only picks a replica, it never waits on a serve).
//
// Surface:
//
//	POST /v1/serve        one query; per-request model, policy and
//	                      deadline_ms (multi-tenant deployments route by
//	                      the model field; unknown models are 400s)
//	POST /v1/serve/batch  NDJSON stream of queries in, NDJSON out
//	                      (both serve endpoints cap the body, 1 MiB and
//	                      32 MiB, answer 413 past it, and use the
//	                      fixed-shape codec of codec.go, not
//	                      encoding/json)
//	POST /v1/simulate     open-loop virtual-time simulation (simq engine;
//	                      max_batch/batch_window_ms drive the micro-batch
//	                      former; autoscale_* knobs override the
//	                      deployment's elastic-fleet config, reported back
//	                      as scale_ups/scale_downs/replica_seconds; model
//	                      labels generated queries and per-point trace
//	                      models replay a multi-tenant production log;
//	                      process "cohorts" superposes a client-cohort
//	                      population — inline spec or the deployment's
//	                      -cohorts default — whose queries carry SLO
//	                      classes; per_model/per_class slices and the
//	                      Jain fairness index in the reply)
//	GET  /v1/replicas     per-replica hardware, lifecycle state, cache
//	                      state (column + re-cache stats), queue depth,
//	                      hit ratio, batch occupancy, per-model tenant
//	                      slices (cache column, PB share, p99/SLO)
//	GET  /v1/frontier     servable SubNets (default model)
//	GET  /v1/cache        replica 0's Persistent Buffer state
//	GET  /v1/stats        cluster-wide aggregates incl. per-model and
//	                      per-SLO-class slices + fairness index
//	GET  /metrics         Prometheus text: served/dropped per model and
//	                      SLO class, batches, cache swaps, re-caches,
//	                      contained handler panics
//	GET  /healthz         status, replicas, router, hosted models
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sushi/internal/core"
	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/simq"
	"sushi/internal/workload"
)

// FrontierEntry is one row of /v1/frontier. The /v1/cache and
// /v1/replicas bodies are core.CacheView and core.ReplicaView: view types
// shared with the public sushi package (one marshaling, two surfaces).
type FrontierEntry = core.SubNetView

// Server is an http.Handler serving a SUSHI cluster.
type Server struct {
	dep *core.ClusterDeployment
	mux *http.ServeMux
	// modelIDs are the hosted model ids: a request naming one shares its
	// string.
	modelIDs []string
	// next issues query ids.
	next atomic.Int64
}

// New wraps a cluster deployment.
func New(dep *core.ClusterDeployment) *Server {
	s := &Server{dep: dep, mux: http.NewServeMux(), modelIDs: dep.Cluster.Models()}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/frontier", s.handleFrontier)
	s.mux.HandleFunc("GET /v1/cache", s.handleCache)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/replicas", s.handleReplicas)
	s.mux.HandleFunc("POST /v1/serve", s.handleServe)
	s.mux.HandleFunc("POST /v1/serve/batch", s.handleServeBatch)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// ServeRequest is the /v1/serve request body (one NDJSON line of
// /v1/serve/batch). Unknown fields are rejected.
type ServeRequest struct {
	// Model names the target model on multi-tenant deployments
	// ("resnet50", "mobilenetv3"). Empty resolves to the default model;
	// an unknown model is a 400.
	Model string `json:"model"`
	// Class optionally tags the query with an SLO class ("gold",
	// "batch", ...): classed traffic surfaces per_class breakdowns and
	// the Jain fairness index in /v1/stats.
	Class string `json:"class"`
	// MinAccuracy is the accuracy floor in top-1 percent.
	MinAccuracy float64 `json:"min_accuracy"`
	// MaxLatencyMS is the latency budget in milliseconds.
	MaxLatencyMS float64 `json:"max_latency_ms"`
	// DeadlineMS, when positive, tightens the latency budget to
	// min(max_latency_ms, deadline_ms). On /v1/serve it additionally
	// arms a wall-clock timeout that cancels the dispatch once expired;
	// batch lines share the batch request's context instead (one
	// wall-clock deadline per query is not meaningful inside a single
	// closed-loop batch).
	DeadlineMS float64 `json:"deadline_ms"`
	// Policy optionally overrides the deployment's scheduling policy for
	// this query: "acc" (strict accuracy), "lat" (strict latency) or
	// "energy" (min energy). Empty keeps the deployment default.
	Policy string `json:"policy"`
}

// ParsePolicy maps the HTTP/CLI policy names to scheduler policies.
func ParsePolicy(name string) (sched.Policy, error) {
	switch name {
	case "acc", "accuracy", "strict_accuracy":
		return sched.StrictAccuracy, nil
	case "lat", "latency", "strict_latency":
		return sched.StrictLatency, nil
	case "energy", "min_energy":
		return sched.MinEnergy, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want acc, lat or energy)", name)
	}
}

// policies is what a per-query override points into, indexed by the
// policy's own value, so a query with one allocates nothing for it.
var policies = [...]sched.Policy{sched.StrictAccuracy, sched.StrictLatency, sched.MinEnergy}

// query validates the request and shapes it into a scheduler query.
func (req ServeRequest) query(id int) (sched.Query, error) {
	if err := checkConstraints(req.MinAccuracy, req.MaxLatencyMS); err != nil {
		return sched.Query{}, err
	}
	if req.DeadlineMS < 0 {
		return sched.Query{}, errors.New("deadline_ms must be non-negative")
	}
	q := sched.Query{
		ID:          id,
		Model:       req.Model,
		Class:       req.Class,
		MinAccuracy: req.MinAccuracy,
		MaxLatency:  req.MaxLatencyMS * 1e-3,
	}
	if req.DeadlineMS > 0 && (q.MaxLatency <= 0 || req.DeadlineMS*1e-3 < q.MaxLatency) {
		q.MaxLatency = req.DeadlineMS * 1e-3
	}
	if req.Policy != "" {
		p, err := ParsePolicy(req.Policy)
		if err != nil {
			return sched.Query{}, err
		}
		q.Policy = &policies[p]
	}
	return q, nil
}

// checkConstraints holds one (A_t, L_t) pair of a request body to the
// ranges every endpoint accepts.
func checkConstraints(minAccuracy, maxLatencyMS float64) error {
	if minAccuracy < 0 || minAccuracy > 100 {
		return errors.New("min_accuracy must be in [0, 100]")
	}
	if maxLatencyMS < 0 {
		return errors.New("max_latency_ms must be non-negative")
	}
	return nil
}

// ServeResponse is the /v1/serve response body (one NDJSON line of
// /v1/serve/batch).
type ServeResponse struct {
	ID           int     `json:"id"`
	Model        string  `json:"model,omitempty"`
	SubNet       string  `json:"subnet"`
	Accuracy     float64 `json:"accuracy"`
	LatencyMS    float64 `json:"latency_ms"`
	Feasible     bool    `json:"feasible"`
	LatencyMet   bool    `json:"latency_met"`
	AccuracyMet  bool    `json:"accuracy_met"`
	HitRatio     float64 `json:"hit_ratio"`
	CacheSwapped bool    `json:"cache_swapped"`
}

// Request bodies are read whole before they are parsed, so they are
// capped: an oversized body is a 413.
const (
	maxServeBody = 1 << 20
	maxBatchBody = 32 << 20
)

// exchange is a serve handler's pooled scratch: the buffer that holds
// the request and then its reply, and a float memo warm from past ones.
type exchange struct {
	buf  []byte
	memo floatMemo
}

var bodyPool = sync.Pool{New: func() any { return new(exchange) }}

// takeBody reads r's body, capped at limit bytes, into a pooled buffer
// that the caller puts back. A failed read is answered here: 413 past
// the cap, else 400.
func takeBody(w http.ResponseWriter, r *http.Request, limit int64) (*exchange, bool) {
	x := bodyPool.Get().(*exchange)
	b := bytes.NewBuffer(x.buf[:0])
	_, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	x.buf = b.Bytes()
	if err == nil {
		return x, true
	}
	badBody(w, err)
	return x, false
}

// badBody answers a body that could not be read or parsed: 413 past a
// MaxBytesReader cap, else 400.
func badBody(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, code, fmt.Sprintf("bad request body: %v", err))
}

// writeReplies renders one reply line per result into x's buffer and
// sends them in one write. No byte is written before every line is
// rendered, so a result that cannot be rendered is a 500 and never a 200
// cut short. The body is dead once decoded: the reply reuses its buffer.
func writeReplies(w http.ResponseWriter, contentType string, x *exchange, qs []sched.Query, rs []serving.Served) {
	buf := x.buf[:0]
	for i := range rs {
		var err error
		if buf, err = appendServeResponse(buf, &x.memo, qs[i].ID, &rs[i]); err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	x.buf = buf
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	_, _ = w.Write(buf) // a failed write means the client is gone
}

func (s *Server) handleServe(w http.ResponseWriter, r *http.Request) {
	x, ok := takeBody(w, r, maxServeBody)
	defer bodyPool.Put(x)
	if !ok {
		return
	}
	body := x.buf
	// Only the first value is read; what follows it is ignored.
	var req ServeRequest
	if _, err := decodeServeRequest(body, 0, &req, s.modelIDs); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	q, err := req.query(int(s.next.Add(1) - 1))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx := r.Context()
	if req.DeadlineMS > 0 {
		// A deadline past what a Duration holds is the longest one.
		timeout := time.Duration(math.MaxInt64)
		if ns := req.DeadlineMS * float64(time.Millisecond); ns < math.MaxInt64 {
			timeout = time.Duration(ns)
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, err := s.dep.Cluster.Serve(ctx, q)
	if err != nil {
		serveError(w, err)
		return
	}
	writeReplies(w, "application/json", x, []sched.Query{q}, []serving.Served{res})
}

// handleServeBatch accepts an NDJSON stream of ServeRequest lines and
// answers with one NDJSON ServeResponse line per query, in input order.
// The whole batch is validated before any query executes, then serves
// concurrently across the cluster's replicas; the whole reply is built
// before its first byte is written.
func (s *Server) handleServeBatch(w http.ResponseWriter, r *http.Request) {
	x, ok := takeBody(w, r, maxBatchBody)
	defer bodyPool.Put(x)
	if !ok {
		return
	}
	body := x.buf
	// One value per line is the norm; a value is at least two bytes.
	qs := make([]sched.Query, 0, min(bytes.Count(body, []byte{'\n'})+1, len(body)/2))
	for i, line := 0, 1; ; line++ {
		var req ServeRequest
		next, err := decodeServeRequest(body, i, &req, s.modelIDs)
		if err == io.EOF {
			break
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("batch line %d: %v", line, err))
			return
		}
		q, err := req.query(int(s.next.Add(1) - 1))
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("batch line %d: %v", line, err))
			return
		}
		qs = append(qs, q)
		i = next
	}
	if len(qs) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	rs, err := s.dep.Cluster.ServeAll(r.Context(), qs)
	if err != nil {
		serveError(w, err)
		return
	}
	writeReplies(w, "application/x-ndjson", x, qs, rs)
}

// TracePoint is one recorded query of a SimulateRequest trace.
type TracePoint struct {
	// ArrivalS is seconds since stream start (non-decreasing).
	ArrivalS float64 `json:"arrival_s"`
	// Model names the query's target model on multi-tenant deployments
	// (empty = the request's Model, then the default model) — a trace
	// with per-point models is the HTTP form of a workload.Mix.
	Model string `json:"model"`
	// MinAccuracy and MaxLatencyMS are the constraint pair it carried.
	MinAccuracy  float64 `json:"min_accuracy"`
	MaxLatencyMS float64 `json:"max_latency_ms"`
}

// SimulateRequest is /v1/simulate's body: an arrival process (or a
// replayable trace), the constraint every generated query carries, and
// the engine's queueing discipline. Unknown fields are rejected.
type SimulateRequest struct {
	// Queries is the stream length (required unless a trace is given,
	// where it defaults to the full trace).
	Queries int `json:"queries"`
	// Process picks the arrival process: "poisson" (default), "onoff",
	// "diurnal", "cohorts" or "trace".
	Process string `json:"process"`
	// Cohorts is a client-cohort population spec for process "cohorts",
	// in the -cohorts grammar (';'-separated cohorts of ','-separated
	// k=v pairs), e.g.
	//
	//	"n=5,rate=40,ia=gamma,shape=0.3,class=gold,budget=8|12;rate=100,class=batch"
	//
	// Empty falls back to the deployment's -cohorts population. Each
	// generated query carries its cohort's model, SLO class and drawn
	// budget/accuracy marks (the request-level model/min_accuracy/
	// max_latency_ms fields are ignored); the reply breaks the run down
	// per_class and reports the Jain fairness index.
	Cohorts string `json:"cohorts"`
	// RateQPS is the Poisson rate / OnOff off-state rate base; for
	// diurnal it is the mean rate.
	RateQPS float64 `json:"rate_qps"`
	// BurstRateQPS, MeanOnS, MeanOffS parameterize the onoff process
	// (burst-state rate and mean state sojourns).
	BurstRateQPS float64 `json:"burst_rate_qps"`
	MeanOnS      float64 `json:"mean_on_s"`
	MeanOffS     float64 `json:"mean_off_s"`
	// Amplitude and PeriodS parameterize the diurnal swing.
	Amplitude float64 `json:"amplitude"`
	PeriodS   float64 `json:"period_s"`
	// Trace replays recorded (arrival, A_t, L_t) tuples (process
	// "trace"); generated-process constraints below are ignored.
	Trace []TracePoint `json:"trace"`
	// Model names the target model for every generated query (and for
	// trace points without their own model) on multi-tenant
	// deployments. Empty resolves to the default model.
	Model string `json:"model"`
	// MinAccuracy and MaxLatencyMS annotate every generated query.
	MinAccuracy  float64 `json:"min_accuracy"`
	MaxLatencyMS float64 `json:"max_latency_ms"`
	// Seed drives the arrival process (default 1).
	Seed int64 `json:"seed"`
	// Queue bounds each replica's wait queue (0 = unbounded);
	// Admission is "reject" (default), "shed-oldest" or "degrade".
	Queue     int    `json:"queue"`
	Admission string `json:"admission"`
	// LoadAware debits budgets by wait time; Drop abandons queries
	// whose budget expired in the queue.
	LoadAware bool `json:"load_aware"`
	Drop      bool `json:"drop"`
	// Router overrides the dispatch policy for the simulated run (empty
	// keeps the deployment's configured policy); RouterSeed seeds the
	// random router.
	Router     string `json:"router"`
	RouterSeed int64  `json:"router_seed"`
	// MaxBatch and BatchWindowMS configure the virtual-time batch
	// former: up to max_batch same-SubNet queries share one accelerator
	// pass (weights fetched once), waiting at most batch_window_ms
	// virtual milliseconds for the batch to fill. Both zero inherits the
	// deployment's -batch policy; max_batch 1 forces an unbatched run.
	MaxBatch      int     `json:"max_batch"`
	BatchWindowMS float64 `json:"batch_window_ms"`
	// AutoscaleMin/AutoscaleMax override the deployment's elastic-fleet
	// bounds for this run (both zero inherits the -autoscale-* flags;
	// min == max pins the fleet for a control run). Max must not exceed
	// the deployed replica count — the engine cannot boot replicas the
	// deployment never built. AutoscalePolicy names the scaling policy
	// ("utilization", "slo", "saturation"); AutoscaleIntervalS and
	// AutoscaleCooldownS are the evaluation cadence and scale-action
	// cooldown in virtual seconds.
	AutoscaleMin       int     `json:"autoscale_min"`
	AutoscaleMax       int     `json:"autoscale_max"`
	AutoscalePolicy    string  `json:"autoscale_policy"`
	AutoscaleIntervalS float64 `json:"autoscale_interval_s"`
	AutoscaleCooldownS float64 `json:"autoscale_cooldown_s"`
}

// autoscale resolves the request's elastic-fleet override (nil when no
// autoscale_* field is set: the run inherits the deployment's config).
func (req SimulateRequest) autoscale() *core.AutoscaleOptions {
	if req.AutoscaleMin == 0 && req.AutoscaleMax == 0 && req.AutoscalePolicy == "" &&
		req.AutoscaleIntervalS == 0 && req.AutoscaleCooldownS == 0 {
		return nil
	}
	return &core.AutoscaleOptions{
		Min:      req.AutoscaleMin,
		Max:      req.AutoscaleMax,
		Policy:   req.AutoscalePolicy,
		Interval: req.AutoscaleIntervalS,
		Cooldown: req.AutoscaleCooldownS,
	}
}

// maxSimulateQueries caps one /v1/simulate stream. The engine runs the
// whole simulation synchronously while sharing replica locks with live
// traffic, so an unbounded stream length would let a single request pin
// the server for minutes; 100k queries stays in low seconds.
const maxSimulateQueries = 100_000

// stream materializes the request's arrival process and query stream:
// trace points, cohort arrivals and generated arrivals alike become a
// trace v2 that is read back the way a recorded one is.
// dflt is the deployment's -cohorts population (nil when none), the
// fallback for process "cohorts" without an inline spec.
func (req SimulateRequest) stream(dflt *workload.Population) ([]serving.TimedQuery, error) {
	if err := checkConstraints(req.MinAccuracy, req.MaxLatencyMS); err != nil {
		return nil, err
	}
	if req.Queries > maxSimulateQueries || len(req.Trace) > maxSimulateQueries {
		return nil, fmt.Errorf("stream length capped at %d queries", maxSimulateQueries)
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	if req.Process == "trace" {
		if len(req.Trace) == 0 {
			return nil, errors.New("process \"trace\" needs a non-empty trace")
		}
		n := req.Queries
		if n == 0 {
			n = len(req.Trace)
		}
		return req.replay(req.Trace, n)
	}
	if len(req.Trace) > 0 {
		return nil, fmt.Errorf("trace given but process is %q (want \"trace\")", req.Process)
	}
	if req.Queries <= 0 {
		return nil, errors.New("queries must be positive")
	}
	if req.Process == "cohorts" {
		pop := dflt
		if req.Cohorts != "" {
			p, err := workload.ParsePopulation(req.Cohorts)
			if err != nil {
				return nil, err
			}
			pop = &p
		}
		if pop == nil {
			return nil, errors.New("process \"cohorts\" needs a cohorts spec (inline or the deployment's -cohorts population)")
		}
		tr, err := pop.Record(req.Queries, seed)
		if err != nil {
			return nil, err
		}
		return core.TraceStream(tr, req.Queries)
	}
	if req.Cohorts != "" {
		return nil, fmt.Errorf("cohorts given but process is %q (want \"cohorts\")", req.Process)
	}
	var proc workload.ArrivalProcess
	switch req.Process {
	case "", "poisson":
		proc = workload.Poisson{Rate: req.RateQPS}
	case "onoff":
		proc = workload.OnOff{
			OnRate:  req.BurstRateQPS,
			OffRate: req.RateQPS,
			MeanOn:  req.MeanOnS,
			MeanOff: req.MeanOffS,
		}
	case "diurnal":
		proc = workload.Diurnal{
			BaseRate:  req.RateQPS,
			Amplitude: req.Amplitude,
			Period:    req.PeriodS,
		}
	default:
		return nil, fmt.Errorf("unknown process %q (want poisson, onoff, diurnal, cohorts or trace)", req.Process)
	}
	arr, err := proc.Times(req.Queries, seed)
	if err != nil {
		return nil, err
	}
	points := make([]TracePoint, len(arr))
	for i, t := range arr {
		points[i] = TracePoint{ArrivalS: t, MinAccuracy: req.MinAccuracy, MaxLatencyMS: req.MaxLatencyMS}
	}
	return req.replay(points, len(points))
}

// replay records points as a trace v2, one record per point (a point
// without a model targets the request's), and replays its first n.
func (req SimulateRequest) replay(points []TracePoint, n int) ([]serving.TimedQuery, error) {
	tr := &workload.TraceV2{Records: make([]workload.TraceV2Record, len(points))}
	for i, p := range points {
		if err := checkConstraints(p.MinAccuracy, p.MaxLatencyMS); err != nil {
			return nil, fmt.Errorf("trace point %d: %w", i, err)
		}
		model := p.Model
		if model == "" {
			model = req.Model
		}
		tr.Records[i] = workload.TraceV2Record{
			Arrival:     p.ArrivalS,
			Cohort:      -1,
			Model:       model,
			MinAccuracy: p.MinAccuracy,
			MaxLatency:  p.MaxLatencyMS * 1e-3,
		}
	}
	return core.TraceStream(tr, n)
}

// SimulateResponse is /v1/simulate's body.
type SimulateResponse struct {
	Queries        int     `json:"queries"`
	Served         int     `json:"served"`
	Dropped        int     `json:"dropped"`
	DroppedLate    int     `json:"dropped_deadline"`
	Rejected       int     `json:"dropped_rejected"`
	Shed           int     `json:"dropped_shed"`
	Degraded       int     `json:"degraded"`
	Router         string  `json:"router"`
	OfferedQPS     float64 `json:"offered_qps"`
	GoodputQPS     float64 `json:"goodput_qps"`
	MakespanS      float64 `json:"makespan_s"`
	AvgE2EMS       float64 `json:"avg_e2e_ms"`
	P50E2EMS       float64 `json:"p50_e2e_ms"`
	P95E2EMS       float64 `json:"p95_e2e_ms"`
	P99E2EMS       float64 `json:"p99_e2e_ms"`
	AvgQueueMS     float64 `json:"avg_queue_ms"`
	SLO            float64 `json:"slo"`
	AvgAccuracy    float64 `json:"avg_accuracy"`
	CacheSwaps     int     `json:"cache_swaps"`
	ReplicaQueries []int   `json:"replica_queries"`
	// Batch occupancy of the run (zero when the batch former was off).
	Batches      int     `json:"batches"`
	AvgBatchSize float64 `json:"avg_batch_size"`
	MaxBatchSize int     `json:"max_batch_size"`
	// Elastic-fleet telemetry: enacted scale actions and the integral of
	// admitting replicas over virtual time (the run's capacity cost; a
	// fixed fleet reports replicas x makespan).
	ScaleUps       int     `json:"scale_ups"`
	ScaleDowns     int     `json:"scale_downs"`
	ReplicaSeconds float64 `json:"replica_seconds"`
	// PerModel breaks the run down by model id on multi-tenant
	// deployments (absent otherwise).
	PerModel []SliceSimView `json:"per_model,omitempty"`
	// PerClass breaks the run down by SLO class on cohort streams
	// (absent while every query is unclassed); FairnessJain is the Jain
	// index over the per-class SLO attainments, in (0, 1].
	PerClass     []SliceSimView `json:"per_class,omitempty"`
	FairnessJain float64        `json:"fairness_jain,omitempty"`
}

// SliceSimView is one model's or one SLO class's slice of a
// /v1/simulate or /v1/stats response (exactly one of Model and Class is
// set): its volume, tail latency, drops and SLO attainment. SLO is
// end-to-end (queueing included, drops counted as misses) when the
// slice saw open-loop traffic, as every /v1/simulate run is, and the
// service-latency SLO on live closed-loop traffic.
type SliceSimView struct {
	Model       string  `json:"model,omitempty"`
	Class       string  `json:"class,omitempty"`
	Queries     int     `json:"queries"`
	Served      int     `json:"served"`
	Dropped     int     `json:"dropped"`
	GoodputQPS  float64 `json:"goodput_qps"`
	P99E2EMS    float64 `json:"p99_e2e_ms"`
	P99MS       float64 `json:"p99_ms"`
	SLO         float64 `json:"slo"`
	AvgAccuracy float64 `json:"avg_accuracy"`
}

// sliceViews renders a summary's per-model and per-SLO-class slices.
func sliceViews(sum serving.Summary) (perModel, perClass []SliceSimView) {
	view := func(model, class string, s serving.Summary) SliceSimView {
		slo := s.E2ESLO
		if s.Dropped == 0 && s.E2ESLO == 0 && s.AvgE2E == 0 {
			slo = s.LatencySLO
		}
		return SliceSimView{
			Model:       model,
			Class:       class,
			Queries:     s.Queries,
			Served:      s.Queries - s.Dropped,
			Dropped:     s.Dropped,
			GoodputQPS:  s.Goodput,
			P99E2EMS:    s.P99E2E * 1e3,
			P99MS:       s.P99Latency * 1e3,
			SLO:         slo,
			AvgAccuracy: s.AvgAccuracy,
		}
	}
	for _, ms := range sum.PerModel {
		perModel = append(perModel, view(ms.Model, "", ms.Summary))
	}
	for _, cs := range sum.PerClass {
		perClass = append(perClass, view("", cs.Class, cs.Summary))
	}
	return perModel, perClass
}

// handleSimulate runs an open-loop virtual-time simulation on the
// deployment's replicas. Virtual time decouples the run from the wall
// clock — hours of diurnal traffic evaluate in milliseconds — but the
// simulated queries serialize with live traffic on each replica's lock
// and leave their mark on its cache state; point this at an idle
// deployment for reproducible sweeps.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	// Capped before decoding: the trace-length check in stream runs only
	// once the whole array has been materialized.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody))
	dec.DisallowUnknownFields()
	var req SimulateRequest
	if err := dec.Decode(&req); err != nil {
		badBody(w, err)
		return
	}
	qs, err := req.stream(s.dep.Cohorts)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	adm, err := simq.ParseAdmission(req.Admission)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	eng, err := s.dep.Engine(core.SimOptions{
		QueueCap:   req.Queue,
		Admission:  adm,
		LoadAware:  req.LoadAware,
		Drop:       req.Drop,
		Router:     req.Router,
		RouterSeed: req.RouterSeed,
		Batching:   simq.Batching{MaxBatch: req.MaxBatch, Window: req.BatchWindowMS * 1e-3},
		Autoscale:  req.autoscale(),
	})
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	res, err := eng.Run(qs)
	if err != nil {
		serveError(w, err)
		return
	}
	sum := res.Summary
	perModel, perClass := sliceViews(sum)
	// Rates that overflow a float64 leave +Inf aggregates JSON cannot
	// carry, and that is the request's doing (400), not the server's.
	writeJSONOr(w, http.StatusBadRequest, SimulateResponse{
		Queries:        res.Queries,
		Served:         res.Served,
		Dropped:        res.Dropped,
		DroppedLate:    res.DeadlineDrops,
		Rejected:       res.Rejected,
		Shed:           res.Shed,
		Degraded:       res.Degraded,
		Router:         res.Router,
		OfferedQPS:     res.OfferedRate,
		GoodputQPS:     sum.Goodput,
		MakespanS:      res.Makespan,
		AvgE2EMS:       sum.AvgE2E * 1e3,
		P50E2EMS:       sum.P50E2E * 1e3,
		P95E2EMS:       sum.P95E2E * 1e3,
		P99E2EMS:       sum.P99E2E * 1e3,
		AvgQueueMS:     sum.AvgQueueDelay * 1e3,
		SLO:            sum.E2ESLO,
		AvgAccuracy:    sum.AvgAccuracy,
		CacheSwaps:     sum.CacheSwaps,
		ReplicaQueries: res.ReplicaQueries,
		Batches:        sum.Batches,
		AvgBatchSize:   sum.AvgBatchSize,
		MaxBatchSize:   sum.MaxBatchSize,
		ScaleUps:       res.ScaleUps,
		ScaleDowns:     res.ScaleDowns,
		ReplicaSeconds: res.ReplicaSeconds,
		PerModel:       perModel,
		PerClass:       perClass,
		FairnessJain:   sum.FairnessJain,
	})
}

func (s *Server) handleFrontier(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, core.FrontierView(s.dep.Frontier))
}

// handleCache reports replica 0's Persistent Buffer (kept for
// single-replica deployments; /v1/replicas has every replica).
func (s *Server) handleCache(w http.ResponseWriter, _ *http.Request) {
	var cv core.CacheView
	s.dep.Cluster.Replicas()[0].Inspect(func(sys *serving.System) {
		cv = core.NewCacheView(sys)
	})
	writeJSON(w, cv)
}

// handleReplicas reports per-replica cache state, queue depth and
// served aggregates.
func (s *Server) handleReplicas(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, core.ReplicaViews(s.dep.Cluster))
}

// StatsResponse is /v1/stats's body: cluster-wide aggregates folded
// from the per-replica accumulators at read time.
type StatsResponse struct {
	Queries      int     `json:"queries"`
	Replicas     int     `json:"replicas"`
	Router       string  `json:"router"`
	AvgLatencyMS float64 `json:"avg_latency_ms"`
	P99LatencyMS float64 `json:"p99_latency_ms"`
	AvgAccuracy  float64 `json:"avg_accuracy"`
	LatencySLO   float64 `json:"latency_slo"`
	AccuracySLO  float64 `json:"accuracy_slo"`
	AvgHitRatio  float64 `json:"avg_hit_ratio"`
	CacheSwaps   int     `json:"cache_swaps"`
	// PerModel breaks the aggregates down by model id on multi-tenant
	// deployments (absent otherwise).
	PerModel []SliceSimView `json:"per_model,omitempty"`
	// PerClass breaks the aggregates down by SLO class once classed
	// (cohort) traffic has been served (absent otherwise); FairnessJain
	// is the Jain index over per-class SLO attainments.
	PerClass     []SliceSimView `json:"per_class,omitempty"`
	FairnessJain float64        `json:"fairness_jain,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	sum := s.dep.Cluster.Stats()
	perModel, perClass := sliceViews(sum)
	writeJSON(w, StatsResponse{
		Queries:      sum.Queries,
		Replicas:     s.dep.Cluster.Size(),
		Router:       s.dep.Cluster.RouterName(),
		AvgLatencyMS: sum.AvgLatency * 1e3,
		P99LatencyMS: sum.P99Latency * 1e3,
		AvgAccuracy:  sum.AvgAccuracy,
		LatencySLO:   sum.LatencySLO,
		AccuracySLO:  sum.AccuracySLO,
		AvgHitRatio:  sum.AvgHitRatio,
		CacheSwaps:   sum.CacheSwaps,
		PerModel:     perModel,
		PerClass:     perClass,
		FairnessJain: sum.FairnessJain,
	})
}

// models lists the deployment's model ids (empty on single-model).
func (s *Server) models() []string {
	ms := s.dep.Cluster.Models()
	if len(ms) == 1 && ms[0] == "" {
		return nil
	}
	return ms
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{
		"status":   "ok",
		"replicas": s.dep.Cluster.Size(),
		"router":   s.dep.Cluster.RouterName(),
	}
	if ms := s.models(); ms != nil {
		body["models"] = ms
	}
	writeJSON(w, body)
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONOr(w, http.StatusInternalServerError, v)
}

// writeJSONOr renders v whole before the first byte is sent, so a value
// JSON cannot carry (NaN, ±Inf) is answered with failCode and the usual
// error body, never a 200 cut short.
func writeJSONOr(w http.ResponseWriter, failCode int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		httpError(w, failCode, fmt.Sprintf("reply not representable: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(body, '\n')) // a failed write means the client is gone
}

// serveError maps a serve-path failure to a status code: an unknown
// model and a simulated run whose autoscale interval is too short for
// its stream are the client's mistake (400), deadline expiry is 504, a
// client abort is 499 (nginx convention — nobody reads the body, but
// logs should not blame the upstream), anything else 500.
func serveError(w http.ResponseWriter, err error) {
	var unknownModel *serving.UnknownModelError
	var evalLimit *simq.EvalLimitError
	switch {
	case errors.As(err, &unknownModel), errors.As(err, &evalLimit):
		httpError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, "deadline exceeded before the query was served")
	case errors.Is(err, context.Canceled):
		httpError(w, 499, "client cancelled the request")
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
