package server

import (
	"net/http"
	"strconv"
	"strings"

	"sushi/internal/serving"
)

// handleMetrics renders the live cluster's counters in the Prometheus
// text format, folded from the per-replica accumulators like /v1/stats.
// /v1/simulate runs count into their own accumulators, not these.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	sum := s.dep.Cluster.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(appendMetrics(nil, s.dep.Cluster.Models(), &sum, s.dep.Cluster.Replicas(), panics.Load()))
}

// appendMetrics appends one exposition: a series per hosted model (the
// single model of a one-tenant fleet is unnamed, model="") and per SLO
// class seen so far, the fleet-wide counters, then a series per replica.
func appendMetrics(b []byte, models []string, sum *serving.Summary, reps []*serving.Replica, panicked int64) []byte {
	// split is a slice's served and dropped counts; a one-model fleet's
	// slice is the total.
	split := func(s *serving.Summary) [2]float64 {
		return [2]float64{float64(s.Queries - s.Dropped), float64(s.Dropped)}
	}
	perModel := func(m string) [2]float64 {
		for i := range sum.PerModel {
			if sum.PerModel[i].Model == m {
				return split(&sum.PerModel[i].Summary)
			}
		}
		if len(models) == 1 {
			return split(sum)
		}
		return [2]float64{}
	}
	for k, fam := range [...]string{"sushi_served_total", "sushi_dropped_total"} {
		b = appendFamily(b, fam, "counter")
		for _, m := range models {
			b = appendSample(b, fam, "model", m, perModel(m)[k])
		}
	}
	for k, fam := range [...]string{"sushi_class_served_total", "sushi_class_dropped_total"} {
		b = appendFamily(b, fam, "counter")
		for i := range sum.PerClass {
			b = appendSample(b, fam, "class", sum.PerClass[i].Class, split(&sum.PerClass[i].Summary)[k])
		}
	}
	// Micro-batched passes and their mean size (0 before the first),
	// scheduler-driven PB updates, window-driven re-caches, and the
	// handler panics the listeners contained.
	for _, f := range []struct {
		name, kind string
		v          float64
	}{
		{"sushi_batches_total", "counter", float64(sum.Batches)},
		{"sushi_batch_size_mean", "gauge", sum.AvgBatchSize},
		{"sushi_cache_swaps_total", "counter", float64(sum.CacheSwaps)},
		{"sushi_recaches_total", "counter", float64(sum.Recaches)},
		{"sushi_panics_total", "counter", float64(panicked)},
	} {
		b = appendSample(appendFamily(b, f.name, f.kind), f.name, "", "", f.v)
	}
	// Per replica: queries queued or in flight, the partitioner's
	// share-driven cache switches and their fill time, and the fill time
	// of every window-driven re-cache (the partitioner's included).
	for k, f := range [...]struct{ name, kind string }{
		{"sushi_replica_queue_depth", "gauge"},
		{"sushi_replica_partition_switches_total", "counter"},
		{"sushi_replica_partition_fill_seconds_total", "counter"},
		{"sushi_replica_recache_fill_seconds_total", "counter"},
	} {
		b = appendFamily(b, f.name, f.kind)
		for _, rep := range reps {
			parts, partSec := rep.PartitionStats()
			_, recacheSec := rep.RecacheStats()
			v := [...]float64{float64(rep.QueueDepth()), float64(parts), partSec, recacheSec}[k]
			b = appendSample(b, f.name, "replica", strconv.Itoa(rep.ID()), v)
		}
	}
	return b
}

func appendFamily(b []byte, name, kind string) []byte {
	return append(append(append(append(b, "# TYPE "...), name...), ' '), kind+"\n"...)
}

// labelEscaper escapes a label value as the text format requires.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func appendSample(b []byte, name, label, value string, v float64) []byte {
	b = append(b, name...)
	if label != "" {
		b = append(append(append(append(b, '{'), label...), `="`...), labelEscaper.Replace(value)...)
		b = append(b, '"', '}')
	}
	return append(strconv.AppendFloat(append(b, ' '), v, 'f', -1, 64), '\n')
}
