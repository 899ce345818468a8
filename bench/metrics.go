package main

import (
	"fmt"
	"sort"
)

// metricDef names one metric, its unit and which way is better — the
// same three facts BENCHMARK.json states. A test keeps the two in step,
// and every run checks that it reported exactly the set for its mode.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics an untraced run reports, on every workload.
// What a name measures depends on the plane (see README.md):
// queries_per_s is HTTP queries, simulated queries per HOST second, or
// images; latency_* is client wall time per request, SIMULATED
// end-to-end time per query, or wall time per forward call.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"queries_per_s", "1/s", "higher"},
	{"latency_typical_us", "us", "lower"},
	{"latency_tail_us", "us", "lower"},
	{"cpu_us_per_query", "us", "lower"},
	{"memory_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports.
var perLayer = []metricDef{
	// server: the real process and the handler.
	{"server.boot_ms", "ms", "lower"},
	{"server.transport_cpu_us_per_query", "us", "lower"},
	{"http.client_write_us_p50", "us", "lower"},
	{"http.client_wait_us_p50", "us", "lower"},
	{"http.client_read_us_p50", "us", "lower"},
	{"server.handler_ns_per_query", "ns", "lower"},
	{"server.self_ns_per_query", "ns", "lower"},
	{"server.json_decode_ns_per_query", "ns", "lower"},
	{"server.json_encode_ns_per_query", "ns", "lower"},
	{"server.allocs_per_query", "count", "lower"},
	// serving: cluster, router, replica, system.
	{"serving.cluster_serve_ns_per_query", "ns", "lower"},
	{"serving.cluster_self_ns_per_query", "ns", "lower"},
	{"serving.router_pick_ns_per_query", "ns", "lower"},
	{"serving.replica_self_ns_per_query", "ns", "lower"},
	{"serving.system_self_ns_per_query", "ns", "lower"},
	{"serving.serveall_scaling_x", "x", "higher"},
	// sched, latencytable, accel.
	{"sched.schedule_ns_per_query", "ns", "lower"},
	{"latencytable.select_ns_per_query", "ns", "lower"},
	{"accel.pass_us", "us", "lower"},
	// Live-path outcomes and cache behaviour (counts, not times).
	{"serving.cache_swaps_per_kquery", "count", "lower"},
	{"serving.recaches_per_kquery", "count", "lower"},
	{"serving.hit_ratio_mean", "share", "higher"},
	{"serving.feasible_share", "share", "higher"},
	{"serving.distinct_rows_served", "count", "higher"},
	{"serving.slo_attainment", "share", "higher"},
	{"serving.served_accuracy", "pct", "higher"},
	// simq stages (host time).
	{"workload.arrival_draw_ns_per_query", "ns", "lower"},
	{"simq.run_ns_per_query", "ns", "lower"},
	{"serving.serve_virtual_ns_per_query", "ns", "lower"},
	{"simq.engine_self_ns_per_query", "ns", "lower"},
	{"simq.allocs_per_query", "count", "lower"},
	{"simq.bytes_per_query", "B", "lower"},
	// simq outcomes (simulated time, exact per seed).
	{"simq.served_share", "share", "higher"},
	{"simq.drop_deadline_share", "share", "lower"},
	{"simq.drop_rejected_share", "share", "lower"},
	{"simq.degraded_share", "share", "lower"},
	{"simq.avg_queue_ms", "sim_ms", "lower"},
	{"simq.avg_batch_size", "count", "higher"},
	{"simq.scale_ups", "count", "lower"},
	{"simq.scale_downs", "count", "lower"},
	{"simq.replica_seconds", "sim_s", "lower"},
	{"simq.cache_swaps_per_kquery", "count", "lower"},
	{"simq.goodput_qps", "1/sim_s", "higher"},
	{"simq.slo_attainment", "share", "higher"},
	{"simq.p99_e2e_ms", "sim_ms", "lower"},
	{"simq.served_accuracy", "pct", "higher"},
	// infer and tensor.
	{"infer.forward_small_ms", "ms", "lower"},
	{"infer.forward_large_ms", "ms", "lower"},
	{"infer.forward_batch4_ms_per_img", "ms", "lower"},
	{"infer.forward_resnet_ms", "ms", "lower"},
	{"infer.prepare_ms", "ms", "lower"},
	{"infer.achieved_gops", "Gop/s", "higher"},
	{"infer.allocs_per_forward", "count", "lower"},
	{"tensor.conv3x3_gops", "Gop/s", "higher"},
	{"tensor.pointwise_gops", "Gop/s", "higher"},
	{"tensor.depthwise_gops", "Gop/s", "higher"},
	{"tensor.im2col_gbps", "GB/s", "higher"},
	{"tensor.requantize_gbps", "GB/s", "higher"},
	{"tensor.pool_speedup_x", "x", "higher"},
	// core: what set-up is made of.
	{"core.deploy_cold_ms", "ms", "lower"},
	{"core.deploy_warm_ms", "ms", "lower"},
	{"latencytable.build_ms", "ms", "lower"},
	// Yardsticks: the host, the generator, the tracer.
	{"host.calib_spin_ms", "ms", "lower"},
	{"host.memcpy_gbps", "GB/s", "higher"},
	{"loadgen.cpu_share", "share", "lower"},
	{"trace.overhead_share", "share", "lower"},
}

// checkReported verifies a run reported exactly the metrics of its
// mode, each in its unit.
func checkReported(r *runResult) error {
	want := endToEnd
	if r.Trace != 0 {
		want = perLayer
	}
	var wrong []string
	for _, d := range want {
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			wrong = append(wrong, "missing "+d.Name)
		case m.Unit != d.Unit:
			wrong = append(wrong, fmt.Sprintf("%s in %s, want %s", d.Name, m.Unit, d.Unit))
		case m.Value != m.Value: // NaN
			wrong = append(wrong, d.Name+" is NaN")
		}
	}
	if len(r.Metrics) > len(want) {
		known := map[string]bool{}
		for _, d := range want {
			known[d.Name] = true
		}
		for name := range r.Metrics {
			if !known[name] {
				wrong = append(wrong, "unexpected "+name)
			}
		}
	}
	if len(wrong) > 0 {
		sort.Strings(wrong)
		return fmt.Errorf("%s reported the wrong metric set: %v", r.Workload, wrong)
	}
	return nil
}
