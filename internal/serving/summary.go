package serving

import (
	"fmt"
	"math"
	"sort"
)

// Summary aggregates a served stream's outcome, the quantities behind
// Fig. 15-16, Table 5 and Appendix A.4.
type Summary struct {
	// Queries is the stream length.
	Queries int
	// AvgLatency, P50Latency, P95Latency, P99Latency are service
	// latencies in seconds.
	AvgLatency, P50Latency, P95Latency, P99Latency float64
	// AvgAccuracy is the mean served top-1 accuracy.
	AvgAccuracy float64
	// LatencySLO and AccuracySLO are attainment fractions in [0, 1].
	LatencySLO, AccuracySLO float64
	// FeasibleFraction is the share of queries whose hard constraint was
	// satisfiable at all.
	FeasibleFraction float64
	// AvgHitRatio is the mean Appendix A.4 cache-hit metric.
	AvgHitRatio float64
	// HitBytes is the total PB-served weight traffic.
	HitBytes int64
	// OffChipEnergyJ is the stream's total off-chip energy.
	OffChipEnergyJ float64
	// CacheSwaps counts scheduler-driven (Q-periodic) cache updates.
	CacheSwaps int
	// Recaches counts window-driven cache switches enacted by the
	// replica cache-management layer (0 while re-caching is disabled).
	Recaches int

	// Open-loop aggregates, populated only for timed (arrival-driven)
	// sessions folded through Accumulator.AddOpenLoop/AddDropped; all
	// zero for closed-loop streams.

	// Dropped counts queries abandoned before service (deadline expiry,
	// admission rejection, or shedding).
	Dropped int
	// AvgE2E, P50E2E, P95E2E, P99E2E are end-to-end (queueing + service)
	// latencies in seconds, over served queries.
	AvgE2E, P50E2E, P95E2E, P99E2E float64
	// AvgQueueDelay is the mean time served queries waited.
	AvgQueueDelay float64
	// E2ESLO is the fraction of ALL queries (drops count as misses)
	// finishing within their original latency budget.
	E2ESLO float64
	// Goodput is SLO-attaining completions per second of virtual time
	// (the arrival-to-last-finish span).
	Goodput float64

	// Elastic-fleet telemetry, populated by simq runs (the engine sets
	// it after folding). ScaleUps and ScaleDowns count enacted replica
	// transitions (zero for fixed fleets); ReplicaSeconds integrates
	// admitting capacity over the run — the fleet's cost in
	// replica-seconds of virtual time (N x makespan for a fixed fleet).
	ScaleUps, ScaleDowns int
	ReplicaSeconds       float64

	// Batch occupancy, populated only when the serving path micro-batches
	// (Accumulator.ObserveBatch); all zero otherwise. Batches counts
	// accelerator passes, AvgBatchSize the mean members per pass (1 means
	// batching was on but every flush went out solo), MaxBatchSize the
	// largest flush.
	Batches      int
	AvgBatchSize float64
	MaxBatchSize int

	// PerModel breaks the same aggregates down by model id on
	// multi-tenant deployments, sorted by model; empty for single-model
	// streams (whose queries carry no model id). The nested summaries
	// carry no PerModel of their own.
	PerModel []ModelSummary

	// PerClass breaks the same aggregates down by SLO class on cohort
	// streams, sorted by class; empty while every query is unclassed.
	// Like PerModel, the nested summaries carry no breakdowns of their
	// own.
	PerClass []ClassSummary
	// FairnessJain is the Jain fairness index over the per-class SLO
	// attainments, in (0, 1]: 1 means every class attains its SLO at
	// the same rate, 1/len(PerClass) means one class takes everything.
	// Zero while PerClass is empty (the index is undefined without
	// classes).
	FairnessJain float64
}

// ModelSummary is one model's slice of a multi-tenant Summary.
type ModelSummary struct {
	// Model is the model id ("resnet50", ...).
	Model string
	Summary
}

// ClassSummary is one SLO class's slice of a cohort Summary.
type ClassSummary struct {
	// Class is the SLO class label ("gold", "batch", ...).
	Class string
	Summary
}

// classFairness folds per-class SLO attainments into the Jain index
// J = (sum x)^2 / (n * sum x^2). The attainment is end-to-end when the
// class saw open-loop traffic (drops count against it), else the
// service-latency SLO; all-zero attainments read as perfectly fair
// (every class is equally starved).
func classFairness(classes []ClassSummary) float64 {
	if len(classes) == 0 {
		return 0
	}
	var sum, sq float64
	for _, c := range classes {
		x := c.LatencySLO
		if c.Dropped > 0 || c.E2ESLO > 0 || c.AvgE2E > 0 {
			x = c.E2ESLO
		}
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(classes)) * sq)
}

// Summarize folds a served stream into a Summary (with per-model
// slices when queries carry model ids).
func Summarize(rs []Served) Summary {
	s := summarize(rs)
	byModel := map[string][]Served{}
	var models []string
	byClass := map[string][]Served{}
	var classes []string
	for _, r := range rs {
		if m := r.Query.Model; m != "" {
			if _, seen := byModel[m]; !seen {
				models = append(models, m)
			}
			byModel[m] = append(byModel[m], r)
		}
		if cl := r.Query.Class; cl != "" {
			if _, seen := byClass[cl]; !seen {
				classes = append(classes, cl)
			}
			byClass[cl] = append(byClass[cl], r)
		}
	}
	sort.Strings(models)
	for _, m := range models {
		s.PerModel = append(s.PerModel, ModelSummary{Model: m, Summary: summarize(byModel[m])})
	}
	sort.Strings(classes)
	for _, cl := range classes {
		s.PerClass = append(s.PerClass, ClassSummary{Class: cl, Summary: summarize(byClass[cl])})
	}
	if len(s.PerClass) > 0 {
		s.FairnessJain = classFairness(s.PerClass)
	}
	return s
}

// summarize folds a served stream without per-model bucketing.
func summarize(rs []Served) Summary {
	var s Summary
	s.Queries = len(rs)
	if len(rs) == 0 {
		return s
	}
	lats := make([]float64, 0, len(rs))
	for _, r := range rs {
		s.AvgLatency += r.Latency
		s.AvgAccuracy += r.Accuracy
		s.AvgHitRatio += r.HitRatio
		s.HitBytes += r.HitBytes
		s.OffChipEnergyJ += r.OffChipEnergyJ
		if r.LatencyMet {
			s.LatencySLO++
		}
		if r.AccuracyMet {
			s.AccuracySLO++
		}
		if r.Feasible {
			s.FeasibleFraction++
		}
		if r.CacheSwapped {
			s.CacheSwaps++
		}
		if r.Recached {
			s.Recaches++
		}
		lats = append(lats, r.Latency)
	}
	n := float64(len(rs))
	s.AvgLatency /= n
	s.AvgAccuracy /= n
	s.AvgHitRatio /= n
	s.LatencySLO /= n
	s.AccuracySLO /= n
	s.FeasibleFraction /= n
	sort.Float64s(lats)
	s.P50Latency = percentile(lats, 0.50)
	s.P95Latency = percentile(lats, 0.95)
	s.P99Latency = percentile(lats, 0.99)
	return s
}

// percentile returns the p-quantile of sorted xs (nearest-rank).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// String renders a compact one-line report.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d lat(avg/p50/p99)=%.3f/%.3f/%.3f ms acc=%.2f%% slo(lat/acc)=%.1f%%/%.1f%% hit=%.2f swaps=%d energy=%.3f mJ",
		s.Queries, s.AvgLatency*1e3, s.P50Latency*1e3, s.P99Latency*1e3,
		s.AvgAccuracy, s.LatencySLO*100, s.AccuracySLO*100, s.AvgHitRatio,
		s.CacheSwaps, s.OffChipEnergyJ*1e3)
}
