// Package sushi is the public API of the SUSHI reproduction: a vertically
// integrated inference-serving stack for weight-shared DNNs (MLSys 2023,
// "Subgraph Stationary Hardware-Software Inference Co-Design").
//
// SUSHI serves a stream of queries, each annotated with an (accuracy,
// latency) constraint pair, on an accelerator with a Persistent Buffer
// that keeps a SubGraph of SuperNet weights stationary across queries
// (SubGraph Stationary, SGS). A state-aware scheduler decides per query
// which SubNet to activate and, every Q queries, which SubGraph to cache.
//
// Quickstart (single accelerator):
//
//	sys, err := sushi.New(sushi.Options{Workload: sushi.MobileNetV3})
//	if err != nil { ... }
//	res, err := sys.Serve(sushi.Query{MinAccuracy: 78, MaxLatency: 5e-3})
//	fmt.Printf("served %s at %.2f ms\n", res.SubNet, res.Latency*1e3)
//
// Concurrent serving scales the same stack to N replica accelerators —
// each with its own Persistent Buffer — behind a pluggable router. The
// Affinity router steers each query to the replica whose cached SubGraph
// already covers the SubNet it would serve, maximizing cross-query SGS
// reuse at cluster scale:
//
//	c, err := sushi.NewCluster(sushi.Options{Workload: sushi.MobileNetV3},
//		sushi.WithReplicas(4), sushi.WithRouter(sushi.Affinity))
//	if err != nil { ... }
//	rs, err := c.ServeAll(ctx, queries) // or c.ServeStream(ctx, ch)
//
// Every cluster serve path is context-aware: a context deadline tightens
// the query's latency budget and cancellation drains cleanly.
//
// Fleets may be heterogeneous: WithHardware assigns per-replica
// accelerator configurations (mixed ZCU104/AlveoU50 deployments get one
// latency table per distinct configuration), the Fastest router
// dispatches against per-replica predicted latencies, and WithRecache
// makes each replica's Persistent-Buffer cache mutable at runtime —
// switching to the SubGraph that would have served the replica's recent
// query mix best, with the switch cost modeled in virtual time by
// Cluster.Simulate.
//
// WithBatching turns on SubGraph-stationary micro-batching, the
// throughput lever the paper's weight-traffic analysis implies: up to B
// queries that resolve to the same scheduled SubNet share one
// accelerator pass — the dominant weight fetch is paid once, each
// member only its own compute and activation traffic — waiting at most
// W for the batch to fill. The same B/W pair drives the live Serve path
// (wall clock) and Cluster.Simulate's virtual batch former.
//
// WithModels makes the fleet multi-tenant: every replica co-hosts one
// scheduler and latency-table family per model family behind a shared
// Persistent Buffer, partitioned statically or by observed traffic
// (WithPartition) — a hot model steals cache from a cold one. Queries
// pick their model via Query.Model, routers and the batch formers are
// model-aware, workload.Mix interleaves per-model arrival streams, and
// Summary.PerModel / GET /v1/replicas report per-model tails and SLO.
//
// The deeper layers are available for direct use in advanced scenarios:
// the experiment harness regenerating every figure and table of the paper
// lives behind Experiment; the cmd/sushi-bench tool wraps it.
package sushi

import (
	"context"
	"fmt"
	"strings"

	"sushi/internal/accel"
	"sushi/internal/calib"
	"sushi/internal/core"
	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/simq"
	"sushi/internal/workload"
)

// Re-exported core types. Aliases keep the public surface small while the
// implementation stays in internal packages.
type (
	// Query is one inference request with its (A_t, L_t) constraints.
	Query = sched.Query
	// Served is the outcome of one query.
	Served = serving.Served
	// Summary aggregates a served stream.
	Summary = serving.Summary
	// Policy selects the hard constraint (StrictAccuracy/StrictLatency).
	Policy = sched.Policy
	// Mode selects the system variant (Full/StateUnaware/NoPB).
	Mode = serving.Mode
	// AccelConfig parameterizes the simulated accelerator.
	AccelConfig = accel.Config
	// Workload names a SuperNet family.
	Workload = core.Workload
	// Options configures New.
	Options = core.DeployOptions
	// Range is a constraint-sampling interval for workload generators.
	Range = workload.Range
	// Phase is one segment of a phased workload.
	Phase = workload.Phase
)

// Policies.
const (
	// StrictAccuracy serves the fastest SubNet meeting the accuracy bound.
	StrictAccuracy = sched.StrictAccuracy
	// StrictLatency serves the most accurate SubNet meeting the latency bound.
	StrictLatency = sched.StrictLatency
	// MinEnergy serves the lowest-energy SubNet meeting both bounds
	// (extension beyond the paper's Algorithm 1; see §7's energy remark).
	MinEnergy = sched.MinEnergy
)

// System variants (Fig. 16's comparison).
const (
	// Full is the complete SUSHI stack.
	Full = serving.Full
	// StateUnaware caches one static SubGraph ("Sushi w/o Sched").
	StateUnaware = serving.StateUnaware
	// NoPB disables the Persistent Buffer ("No-Sushi").
	NoPB = serving.NoPB
)

// Workloads.
const (
	// ResNet50 is the weight-shared OFA-ResNet50 family.
	ResNet50 = core.ResNet50
	// MobileNetV3 is the weight-shared OFA-MobileNetV3 family.
	MobileNetV3 = core.MobileNetV3
)

// Accelerator presets.
var (
	// ZCU104 is the embedded-board configuration (Tables 2-3).
	ZCU104 = accel.ZCU104
	// AlveoU50 is the datacenter-card configuration (§5.4).
	AlveoU50 = accel.AlveoU50
	// RooflineStudy is the analytic-model configuration (§5.2).
	RooflineStudy = accel.RooflineStudy
)

// Workload generators (seeded, deterministic).
var (
	// UniformWorkload draws n queries with uniform constraints.
	UniformWorkload = workload.Uniform
	// PhasedWorkload cycles through constraint phases.
	PhasedWorkload = workload.Phased
	// BurstyWorkload injects transient latency-budget crunches.
	BurstyWorkload = workload.Bursty
	// DriftingWorkload linearly interpolates constraints over the stream.
	DriftingWorkload = workload.Drifting
)

// Summarize folds a served stream into aggregate statistics.
var Summarize = serving.Summarize

// Timed serving (open-loop arrivals with queueing, §1's transient
// overload regime).
type (
	// TimedQuery is a query plus its arrival time.
	TimedQuery = serving.TimedQuery
	// TimedServed is a timed query's outcome (service + queueing).
	TimedServed = serving.TimedServed
	// TimedOptions controls the queueing discipline.
	TimedOptions = serving.TimedOptions
	// TimedSummary aggregates a timed session.
	TimedSummary = serving.TimedSummary
)

// SummarizeTimed folds a timed session.
var SummarizeTimed = serving.SummarizeTimed

// PoissonArrivals draws open-loop arrival times at the given rate.
var PoissonArrivals = workload.PoissonArrivals

// Open-loop simulation. Arrival processes generate deterministic
// seeded arrival streams; Cluster.Simulate plays them through the
// virtual-time discrete-event engine (internal/simq) with bounded
// queues and admission control.
type (
	// ArrivalProcess generates open-loop arrival instants.
	ArrivalProcess = workload.ArrivalProcess
	// Poisson is the constant-rate memoryless process.
	Poisson = workload.Poisson
	// OnOff is the two-state bursty (MMPP) process.
	OnOff = workload.OnOff
	// Diurnal is the sinusoidal-rate day/night process.
	Diurnal = workload.Diurnal
	// TraceArrivals replays recorded (arrival, A_t, L_t) tuples.
	TraceArrivals = workload.Trace
	// TraceEntry is one recorded tuple of a TraceArrivals.
	TraceEntry = workload.TraceEntry
	// Mix superposes per-model arrival processes into one merged,
	// labelled stream — the multi-tenant workload combinator (e.g. a
	// diurnal MobileNetV3 stream interleaved with bursty ResNet50).
	Mix = workload.Mix
	// MixComponent is one model's arrival stream inside a Mix.
	MixComponent = workload.MixComponent
	// Gamma is the Gamma-renewal arrival process (shape < 1 bursty,
	// shape > 1 regular, mean rate pinned).
	Gamma = workload.Gamma
	// Weibull is the Weibull-renewal arrival process (shape 1 is
	// bit-identical to Poisson per seed).
	Weibull = workload.Weibull
	// Empirical is a weighted discrete distribution over observed
	// budget/accuracy marks (the zero value means "no constraint").
	Empirical = workload.Empirical
	// Cohort is one homogeneous client group: rate, inter-arrival law,
	// empirical marks, SLO class and target model.
	Cohort = workload.Cohort
	// Population superposes N seeded cohorts into one arrival stream —
	// the heterogeneous-client workload combinator (see WithCohorts).
	Population = workload.Population
	// InterArrival names a Cohort's inter-arrival law.
	InterArrival = workload.InterArrival
	// TraceV2 is the versioned replay trace: header (version, seed,
	// cohort table) plus records carrying arrival, model, cohort id,
	// SLO class and the constraint pair — recorded simulations replay
	// bit-exactly through it.
	TraceV2 = workload.TraceV2
	// TraceV2Record is one recorded arrival of a TraceV2.
	TraceV2Record = workload.TraceV2Record
	// CohortLabel is one row of a TraceV2's cohort table.
	CohortLabel = workload.CohortLabel
	// TraceVersionError reports a trace whose version the decoder does
	// not speak.
	TraceVersionError = workload.TraceVersionError
	// TraceDecodeError reports malformed or truncated trace input.
	TraceDecodeError = workload.TraceDecodeError
	// ModelSummary is one model's slice of a multi-tenant Summary.
	ModelSummary = serving.ModelSummary
	// ClassSummary is one SLO class's slice of a cohort Summary.
	ClassSummary = serving.ClassSummary
	// SimResult aggregates one open-loop run.
	SimResult = simq.Result
	// SimOutcome is one query's fate in an open-loop run.
	SimOutcome = simq.Outcome
	// AdmissionPolicy selects the bounded-queue overflow behaviour.
	AdmissionPolicy = simq.Admission
)

// Admission policies for SimOptions.
const (
	// AdmitReject refuses arrivals when the replica queue is full.
	AdmitReject = simq.Reject
	// AdmitShedOldest evicts the stalest queued query instead.
	AdmitShedOldest = simq.ShedOldest
	// AdmitDegrade admits past the cap but serves with the fastest
	// SubNet under the replica's current cache state.
	AdmitDegrade = simq.Degrade
)

// Inter-arrival laws for Cohort.InterArrival.
const (
	// IAExp is memoryless exponential spacing (the zero value: a lone
	// cohort is a Poisson stream).
	IAExp = workload.IAExp
	// IAGamma is Gamma-distributed spacing with Cohort.Shape.
	IAGamma = workload.IAGamma
	// IAWeibull is Weibull-distributed spacing with Cohort.Shape.
	IAWeibull = workload.IAWeibull
)

// Cohort-workload and trace v2 helpers.
var (
	// ParsePopulation builds a Population from the compact k=v spec
	// behind sushi-server -cohorts (see workload.ParsePopulation).
	ParsePopulation = workload.ParsePopulation
	// ZipfRates apportions a total rate across n cohorts by a Zipf law
	// — the canonical skewed-client decomposition.
	ZipfRates = workload.ZipfRates
	// DecodeTraceV2 reads one trace v2 stream (typed errors, never
	// panics).
	DecodeTraceV2 = workload.DecodeTraceV2
	// RecordTraceQueries captures an already-timed query stream as a
	// trace v2 for bit-exact replay.
	RecordTraceQueries = workload.RecordQueries
)

// RecordCohortTrace records the cohortsweep experiment's skewed
// 100-cohort population (the canonical heterogeneous workload) as a
// replayable trace v2 — the sushi-bench -record-trace path. queries <= 0
// records the experiment's default stream length.
func RecordCohortTrace(queries int) (*TraceV2, error) {
	return core.CohortSweepTrace(queries)
}

// ReplayTrace plays a recorded trace v2 through a fresh cohortsweep
// fleet and reports the run (rendered table + headline metrics) — the
// sushi-bench -replay-trace path. Replaying a RecordCohortTrace capture
// reproduces the cohortsweep skewed arm bit for bit.
func ReplayTrace(tr *TraceV2) (string, map[string]float64, error) {
	res, err := core.ReplayTraceV2(tr)
	if err != nil {
		return "", nil, err
	}
	return res.String(), res.Metrics, nil
}

// TimedStream pairs a query stream with arrival times, element-wise.
var TimedStream = simq.Stream

// ServeTimed runs a timed stream through the system's single accelerator
// in arrival order (FIFO, non-preemptive). It is a thin wrapper over the
// simq discrete-event engine — the same queueing semantics that drive
// Cluster.Simulate. The whole stream is validated before any query is
// served, so invalid input has no side effects on accelerator state.
func (s *System) ServeTimed(qs []TimedQuery, opt TimedOptions) ([]TimedServed, error) {
	return simq.ServeTimed(s.d.System, qs, opt)
}

// System is a ready-to-serve SUSHI deployment.
type System struct {
	d *core.Deployment
}

// New builds a SUSHI system. Zero-valued options select ResNet50 on a
// ZCU104 with the full stack, STRICT_ACCURACY... see Options for fields.
func New(opt Options) (*System, error) {
	d, err := core.Deploy(opt)
	if err != nil {
		return nil, err
	}
	return &System{d: d}, nil
}

// Serve runs one query through the stack. It is the back-compat wrapper
// over ServeContext with a background context.
func (s *System) Serve(q Query) (Served, error) { return s.d.Serve(q) }

// ServeAll runs a query stream in order (back-compat wrapper over
// ServeAllContext with a background context).
func (s *System) ServeAll(qs []Query) ([]Served, error) { return s.d.ServeAll(qs) }

// ServeContext runs one query with deadline and cancellation awareness:
// a context deadline tightens the query's MaxLatency to the remaining
// wall-clock budget, and an expired or cancelled context fails fast
// without touching accelerator state.
func (s *System) ServeContext(ctx context.Context, q Query) (Served, error) {
	return s.d.System.ServeContext(ctx, q)
}

// ServeAllContext runs a stream in order, checking for cancellation
// between queries.
func (s *System) ServeAllContext(ctx context.Context, qs []Query) ([]Served, error) {
	return s.d.System.ServeAllContext(ctx, qs)
}

// SubNetInfo describes one servable SubNet of the deployment.
type SubNetInfo = core.SubNetView

// Frontier lists the deployment's servable SubNets, smallest first.
func (s *System) Frontier() []SubNetInfo {
	return core.FrontierView(s.d.Frontier)
}

// CacheState describes a Persistent Buffer's contents.
type CacheState = core.CacheView

// Cache reports the current Persistent Buffer state.
func (s *System) Cache() CacheState {
	return core.NewCacheView(s.d.System)
}

// Experiment regenerates one of the paper's tables or figures by id
// (fig2, fig3, fig9..fig18, table1..table6, hitratio, ...; see
// Experiments for the full list) and returns its rendered text.
// Workload-parameterized experiments accept "fig10:mobilenetv3" style
// suffixes; the default is resnet50 unless the entry says otherwise.
func Experiment(id string) (string, error) {
	res, err := runExperiment(id)
	if err != nil {
		return "", err
	}
	return res.String(), nil
}

// ExperimentCSV regenerates an experiment and renders it as CSV (with
// notes as trailing '#' comment lines).
func ExperimentCSV(id string) (string, error) {
	res, err := runExperiment(id)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if err := res.WriteCSV(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// ExperimentWithMetrics regenerates an experiment and returns its
// rendered text together with its headline metrics in machine-readable
// form (canonical keys like "goodput_qps" and "p99_e2e_ms"; nil for
// experiments without a scalar headline) — the hook behind sushi-bench
// -json, which records the bench trajectory as JSON instead of prose.
func ExperimentWithMetrics(id string) (string, map[string]float64, error) {
	res, err := runExperiment(id)
	if err != nil {
		return "", nil, err
	}
	return res.String(), res.Metrics, nil
}

// experimentEntry couples an experiment id with its runner and default
// workload. Experiments and runExperiment both read experimentRegistry,
// so the advertised list and the dispatch can never diverge (the old
// hand-written switch once dispatched "fig18" without listing it).
type experimentEntry struct {
	id string
	// workload is the default when the id carries no ":workload" suffix
	// ("" means ResNet50). Workload-insensitive runners ignore it.
	workload core.Workload
	run      func(core.Workload) (*core.Result, error)
}

// fixed adapts a workload-insensitive experiment to the registry shape.
func fixed(run func() (*core.Result, error)) func(core.Workload) (*core.Result, error) {
	return func(core.Workload) (*core.Result, error) { return run() }
}

var experimentRegistry = []experimentEntry{
	{id: "fig2", run: core.Fig2},
	{id: "fig3", run: fixed(core.Fig3)},
	{id: "fig9", run: core.Fig9},
	{id: "fig10", run: core.Fig10},
	{id: "fig11", run: core.Fig11},
	{id: "fig12", run: core.Fig12},
	{id: "fig13a", run: fixed(core.Fig13a)},
	{id: "fig13b", run: core.Fig13b},
	{id: "fig14", run: fixed(core.Fig14)},
	{id: "fig15", run: func(w core.Workload) (*core.Result, error) {
		return core.Fig15(w, sched.StrictLatency, 0)
	}},
	{id: "fig15acc", run: func(w core.Workload) (*core.Result, error) {
		return core.Fig15(w, sched.StrictAccuracy, 0)
	}},
	{id: "fig16", run: func(w core.Workload) (*core.Result, error) { return core.Fig16(w, 0) }},
	{id: "fig17", run: func(w core.Workload) (*core.Result, error) { return core.Fig17(w, 0) }},
	// fig18 is fig17's companion Q-sweep on the MobileNetV3 family.
	{id: "fig18", workload: core.MobileNetV3,
		run: func(w core.Workload) (*core.Result, error) { return core.Fig17(w, 0) }},
	{id: "table1", run: fixed(core.Table1)},
	{id: "table2", run: fixed(core.Table2)},
	{id: "table3", run: fixed(core.Table3)},
	{id: "table4", run: fixed(core.Table4)},
	{id: "table5", run: func(w core.Workload) (*core.Result, error) { return core.Table5(w, 0) }},
	{id: "table6", run: core.Table6},
	{id: "hitratio", run: fixed(func() (*core.Result, error) { return core.HitRatioA4(0) })},
	{id: "ablation-avg", run: func(w core.Workload) (*core.Result, error) {
		return core.AblationAvg(w, 0)
	}},
	{id: "overload", run: func(w core.Workload) (*core.Result, error) { return core.Overload(w, 0) }},
	// loadsweep is the open-loop analogue of fig16: offered load vs tail
	// latency/SLO/goodput per system variant, through the simq engine.
	{id: "loadsweep", run: func(w core.Workload) (*core.Result, error) { return core.LoadSweep(w, 0) }},
	// hetero compares homogeneous vs mixed ZCU104+AlveoU50 fleets with
	// per-replica latency tables, hardware-aware routing and dynamic
	// re-caching under identical seeded arrivals (Table 2 / §5.4.2 at
	// cluster scale).
	{id: "hetero", run: func(w core.Workload) (*core.Result, error) { return core.Hetero(w, 0) }},
	// batchsweep is the micro-batching payoff curve: goodput/p99 vs the
	// batch former's B x W grid at fixed Poisson offered load beyond
	// unbatched capacity (weights fetched once per batch).
	{id: "batchsweep", workload: core.MobileNetV3,
		run: func(w core.Workload) (*core.Result, error) { return core.BatchSweep(w, 0) }},
	// multitenant is the consolidation-vs-isolation experiment: one
	// shared multi-model fleet vs a static per-model hardware split at
	// identical hardware and seeds, under anti-correlated per-model
	// bursts (workload-insensitive: it always runs both families).
	{id: "multitenant", run: fixed(func() (*core.Result, error) { return core.MultiTenant(0) })},
	// elastic is the autoscaling experiment: one diurnal stream served
	// by a fixed 6-replica fleet vs an elastic 2..8 fleet whose
	// scale-ups pay the cold Persistent Buffer fill in virtual time —
	// the elastic fleet wins on both replica-seconds and SLO
	// (workload-insensitive: calibrated on the MobileNetV3 family).
	{id: "elastic", run: fixed(func() (*core.Result, error) { return core.Elastic(0) })},
	// cohortsweep is the heterogeneous-clients experiment: identical
	// mean load arriving as one smooth Poisson stream vs a Zipf-skewed
	// population of 100 bursty cohorts (p99/SLO gap at unchanged mean
	// load), plus a degrade+batching arm recovering part of the gap
	// (workload-insensitive: calibrated on the MobileNetV3 family).
	{id: "cohortsweep", run: fixed(func() (*core.Result, error) { return core.CohortSweep(0) })},
	// calibsweep is the calibration-noise experiment: multiplicative
	// seeded per-cell noise on the latency table (a simulated
	// miscalibrated sweep) vs decision-level SLO attainment — the
	// scheduler decides from its noisy belief, violations are judged
	// against the true table. Sigma 0 is pinned at exactly 100%
	// (workload-insensitive: calibrated on the MobileNetV3 family).
	{id: "calibsweep", run: fixed(func() (*core.Result, error) { return core.CalibSweep(0) })},
}

// Measured-table calibration (the offline end of WithMeasuredTable).
type (
	// CalibrateOptions configures Calibrate: workload, candidate count,
	// repetitions, batch sizes, seed, and smoke-grid row/column caps.
	CalibrateOptions = core.CalibrateOptions
	// CalibrationFile is the versioned on-disk measured table: sweep
	// provenance (seed, reps, calib_ns yardstick), raw per-cell wall-ns
	// evidence, and the embedded latency table.
	CalibrationFile = calib.File
	// CalibrationReport is the per-cell predicted-vs-measured error
	// distribution against the analytic table (global scale fit plus
	// mean/p50/p95/max relative error).
	CalibrationReport = calib.Report
)

// Calibrate executes the workload's frontier SubNets through the fast
// inference engine and sweeps a measured (SubNet × cached SubGraph ×
// batch) latency table on THIS machine, returning the file (write it
// with WriteCalibrationFile, serve from it with LoadMeasuredTable +
// WithMeasuredTable) and the report comparing it against the analytic
// table a deployment would otherwise build.
func Calibrate(opt CalibrateOptions) (*CalibrationFile, *CalibrationReport, error) {
	return core.Calibrate(opt)
}

// WriteCalibrationFile writes a calibration table file to path.
var WriteCalibrationFile = calib.WriteFile

// Experiments lists the available experiment ids, in registry order.
func Experiments() []string {
	out := make([]string, len(experimentRegistry))
	for i, e := range experimentRegistry {
		out[i] = e.id
	}
	return out
}

func runExperiment(id string) (*core.Result, error) {
	name, w := splitID(id)
	for _, e := range experimentRegistry {
		if e.id != name {
			continue
		}
		if w == "" {
			w = e.workload
			if w == "" {
				w = core.ResNet50
			}
		}
		return e.run(w)
	}
	return nil, fmt.Errorf("sushi: unknown experiment %q (have %v)", id, Experiments())
}

// splitID separates an "id:workload" suffix; the workload is empty when
// absent (the registry entry's default applies).
func splitID(id string) (string, core.Workload) {
	for i := 0; i < len(id); i++ {
		if id[i] == ':' {
			return id[:i], core.Workload(id[i+1:])
		}
	}
	return id, ""
}
