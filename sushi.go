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
// Quickstart (a single accelerator is a cluster of one replica):
//
//	c, err := sushi.NewCluster(sushi.Options{Workload: sushi.MobileNetV3})
//	if err != nil { ... }
//	res, err := c.Serve(ctx, sushi.Query{MinAccuracy: 78, MaxLatency: 5e-3})
//	fmt.Printf("served %s at %.2f ms\n", res.SubNet, res.Latency*1e3)
//
// The same stack scales to N replica accelerators — each with its own
// Persistent Buffer — behind a pluggable router. The Affinity router
// steers each query to the replica whose cached SubGraph already covers
// the SubNet it would serve, maximizing cross-query SGS reuse at
// cluster scale:
//
//	c, err := sushi.NewCluster(sushi.Options{Workload: sushi.MobileNetV3},
//		sushi.WithReplicas(4), sushi.WithRouter(sushi.Affinity))
//	if err != nil { ... }
//	rs, err := c.ServeAll(ctx, queries) // or c.ServeStream(ctx, ch)
//
// Every serve path is context-aware: a context deadline tightens the
// query's latency budget and cancellation drains cleanly.
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
// model-aware, Mix interleaves per-model arrival streams, and
// Summary.PerModel / GET /v1/replicas report per-model tails and SLO.
//
// The package exports what the cmd/ tools and examples/ use. Client
// cohorts and measured latency tables are served by sushi-server
// (-cohorts, -table); the experiment harness regenerating every figure
// and table of the paper lives behind Experiment, which cmd/sushi-bench
// wraps.
package sushi

import (
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
	// Options configures each replica of NewCluster.
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

// Open-loop simulation (§1's transient overload regime). Arrival
// processes generate deterministic seeded arrival streams;
// Cluster.Simulate plays them through the virtual-time discrete-event
// engine (internal/simq) with bounded queues and admission control.
type (
	// TimedQuery is a query plus its arrival time.
	TimedQuery = serving.TimedQuery
	// TimedServed is a timed query's outcome (service + queueing), as
	// SimResult.Timed returns it.
	TimedServed = serving.TimedServed
	// Poisson is the constant-rate memoryless process.
	Poisson = workload.Poisson
	// OnOff is the two-state bursty (MMPP) process.
	OnOff = workload.OnOff
	// Diurnal is the sinusoidal-rate day/night process.
	Diurnal = workload.Diurnal
	// Mix superposes per-model arrival processes into one merged,
	// labelled stream — the multi-tenant workload combinator (e.g. a
	// diurnal MobileNetV3 stream interleaved with bursty ResNet50).
	Mix = workload.Mix
	// MixComponent is one model's arrival stream inside a Mix.
	MixComponent = workload.MixComponent
	// TraceV2 is the versioned replay trace: header (version, seed,
	// cohort table) plus records carrying arrival, model, cohort id,
	// SLO class and the constraint pair — recorded simulations replay
	// bit-exactly through it.
	TraceV2 = workload.TraceV2
	// SimResult aggregates one open-loop run.
	SimResult = simq.Result
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

// TimedStream pairs a query stream with arrival times, element-wise.
var TimedStream = simq.Stream

// Trace v2 capture and replay (the sushi-bench -record-trace and
// -replay-trace paths).
var (
	// DecodeTraceV2 reads one trace v2 stream (typed errors, never
	// panics).
	DecodeTraceV2 = workload.DecodeTraceV2
	// RecordCohortTrace records the skewed 100-cohort population (the
	// canonical heterogeneous workload: Zipf rates, bursty heavy hitters,
	// three SLO classes) as a replayable trace v2. queries <= 0 records
	// 600 queries.
	RecordCohortTrace = core.CohortSweepTrace
	// ReplayTrace plays a recorded trace v2 through a fresh 4-replica
	// MobileNetV3 fleet and reports the run. Replaying a
	// RecordCohortTrace capture reproduces a live run of the skewed
	// population bit for bit.
	ReplayTrace = core.ReplayTraceV2
)

// ExperimentResult is one regenerated table or figure: String renders
// it as an aligned text table, WriteCSV as CSV (notes as trailing '#'
// lines), and Metrics holds its numbers in machine-readable form (nil
// for experiments without one).
type ExperimentResult = core.Result

// Experiment regenerates one of the paper's tables or figures by id,
// "fig10:mobilenetv3" style suffixes picking the workload; "fidelity"
// scores every reproduced number against the paper's. Experiments lists
// the ids in registry order.
var (
	Experiment  = core.Experiment
	Experiments = core.Experiments
)

// Measured-table calibration (sushi-bench -calibrate; sushi-server
// -table serves from the file it writes).
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
// with WriteCalibrationFile, serve from it with sushi-server -table) and
// the report comparing it against the analytic table a deployment would
// otherwise build.
var Calibrate = core.Calibrate

// WriteCalibrationFile writes a calibration table file to path.
var WriteCalibrationFile = calib.WriteFile
