package main

import (
	"fmt"
	"runtime"
	"time"

	"sushi/internal/accel"
	"sushi/internal/nn"
	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/simq"
	"sushi/internal/supernet"
	"sushi/internal/tensor"
)

// deployCosts times what set-up is made of: the first deployment of the
// process (cold: frontier search and latency-table builds), the second
// (warm: the process-wide table-build cache) and one latency-table build
// nothing has cached (its own candidate seed).
func (l *ledger) deployCosts(w *httpWorkload) error {
	start := time.Now()
	dep, err := w.deploy()
	if err != nil {
		return err
	}
	l.res.set("core.deploy_cold_ms", float64(l.tr.leaf("core.deploy", 0, 0, start, 1))/1e6, "ms")
	start = time.Now()
	if _, err := w.deploy(); err != nil {
		return err
	}
	l.res.set("core.deploy_warm_ms", float64(l.tr.leaf("core.deploy", 1, 0, start, 1))/1e6, "ms")

	start = time.Now()
	_, _, err = serving.BuildTable(dep.Super, dep.Frontier, serving.Options{
		Accel: accel.ZCU104(), Policy: sched.StrictLatency, Q: 4, Mode: serving.Full, Candidates: 16, Seed: 2})
	if err != nil {
		return err
	}
	l.res.set("latencytable.build_ms", float64(l.tr.leaf("latencytable.build", 0, 0, start, 1))/1e6, "ms")

	if err := l.accelPass(dep, 0); err != nil {
		return err
	}
	return l.serveAllScaling(0)
}

// httpRound runs one real closed-loop round against a fresh server with
// httptrace on every 16th request, and reports what only a real process
// shows: boot time, CPU outside the handler, the client's write/wait/
// read phases and the generator's own share of the CPU.
func (l *ledger) httpRound(w *httpWorkload, dur time.Duration, parent int) error {
	bin, buildS, err := buildServer(l.root)
	if err != nil {
		return err
	}
	l.res.Env.BuildS = buildS
	dep, err := w.deploy()
	if err != nil {
		return err
	}
	specs := modelSpecs(dep)
	qs, bodies := w.generate(l.seed, specs)
	l.res.Env.StreamSHA256 = streamDigest(bodies)
	start := time.Now()
	r, err := runHTTPRound(httpRoundOptions{bin: bin, w: w, qs: qs, bodies: bodies, specs: specIndex(specs), frontier: &specs[0],
		seen: newReplySeen(), dur: dur, phaseEvery: 16, notes: &l.res.Notes})
	if err != nil {
		return err
	}
	l.tr.leaf("http.round", 0, parent, start, int(r.queries))
	l.res.Attempted += r.attempted
	l.res.Failed += r.failed

	cpuPerQuery := float64(r.serverCPU.Microseconds()) / float64(r.queries)
	l.res.set("server.boot_ms", r.bootS*1e3, "ms")
	l.res.set("server.transport_cpu_us_per_query", cpuPerQuery-l.res.Metrics["server.handler_ns_per_query"].Value/1e3, "us")
	l.res.set("loadgen.cpu_share", float64(r.genCPU)/float64(r.genCPU+r.serverCPU), "share")
	var write, wait, read []float64
	for _, p := range r.phases {
		write = append(write, float64(p.write)/1e3)
		wait = append(wait, float64(p.wait)/1e3)
		read = append(read, float64(p.read)/1e3)
	}
	l.res.set("http.client_write_us_p50", median(write), "us")
	l.res.set("http.client_wait_us_p50", median(wait), "us")
	l.res.set("http.client_read_us_p50", median(read), "us")
	return nil
}

// stageQueries is the stream length of each simq stage call.
const stageQueries = 100_000

// simStages times the simq path's stages as separate calls from
// outside: drawing the arrivals and minting the queries, Engine.Run on
// the materialised stream, the replicas' virtual serve alone and the
// router alone. The engine's self time is the run minus the two. The
// virtual-time counters come from the run's result and are exact per
// seed.
func (l *ledger) simStages(w *simWorkload, reps, parent int) error {
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	var first *simq.Result
	n := float64(stageQueries)
	for rep := 0; rep < reps; rep++ {
		sec := l.tr.begin("bench.simq_stages", rep, parent)
		d, err := w.build()
		if err != nil {
			return err
		}
		stream, err := w.arrivals(d.spec, subSeed(l.seed, 11))
		if err != nil {
			return err
		}
		mk := w.maker(d.spec, subSeed(l.seed, 12))
		tqs := make([]serving.TimedQuery, stageQueries)
		start := time.Now()
		for i := range tqs {
			t, _ := stream()
			tqs[i] = serving.TimedQuery{Query: mk(i, t), Arrival: t}
		}
		add("workload.arrival_draw_ns_per_query", float64(l.tr.leaf("workload.arrival_draw", rep, sec, start, stageQueries))/n)

		runtime.GC()
		m0, b0 := mallocs()
		start = time.Now()
		res, err := d.eng.Run(tqs)
		if err != nil {
			return err
		}
		run := float64(l.tr.leaf("simq.run", rep, sec, start, stageQueries)) / n
		m1, b1 := mallocs()
		add("simq.run_ns_per_query", run)
		add("simq.allocs_per_query", float64(m1-m0)/n)
		add("simq.bytes_per_query", float64(b1-b0)/n)
		if msg := conservation(res); msg != "" {
			l.res.Failed++
			note(&l.res.Notes, "conservation: "+msg)
		}
		l.res.Attempted += stageQueries
		if first == nil {
			first = res
			l.res.Env.OutcomeSHA256 = outcomeDigest(res)
		}

		// The serve and the pick alone, on a fresh deployment.
		if d, err = w.build(); err != nil {
			return err
		}
		replicas := d.dep.Cluster.Replicas()
		start = time.Now()
		for i := range tqs {
			if _, err := replicas[i%len(replicas)].ServeVirtual(tqs[i].Query, tqs[i].Query, false); err != nil {
				return err
			}
		}
		virtual := float64(l.tr.leaf("serving.serve_virtual", rep, sec, start, stageQueries)) / n
		add("serving.serve_virtual_ns_per_query", virtual)
		router := serving.NewLeastLoaded()
		start = time.Now()
		for i := range tqs {
			selectSink += router.Pick(tqs[i].Query, replicas)
		}
		pick := float64(l.tr.leaf("serving.router_pick_virtual", rep, sec, start, stageQueries)) / n
		// The run routes every arrival but serves only those it did not
		// drop.
		self, _ := selfTimes([]float64{run, virtual*float64(res.Served)/n + pick})
		add("simq.engine_self_ns_per_query", self[0])
		l.tr.end(sec, stageQueries)
	}
	for name, vs := range samples {
		unit := "ns"
		switch name {
		case "simq.allocs_per_query":
			unit = "count"
		case "simq.bytes_per_query":
			unit = "B"
		}
		l.res.set(name, median(vs), unit)
	}
	sum := first.Summary
	l.res.set("simq.served_share", float64(first.Served)/n, "share")
	l.res.set("simq.drop_deadline_share", float64(first.DeadlineDrops)/n, "share")
	l.res.set("simq.drop_rejected_share", float64(first.Rejected)/n, "share")
	l.res.set("simq.degraded_share", float64(first.Degraded)/n, "share")
	l.res.set("simq.avg_queue_ms", sum.AvgQueueDelay*1e3, "sim_ms")
	l.res.set("simq.avg_batch_size", sum.AvgBatchSize, "count")
	l.res.set("simq.scale_ups", float64(first.ScaleUps), "count")
	l.res.set("simq.scale_downs", float64(first.ScaleDowns), "count")
	l.res.set("simq.replica_seconds", first.ReplicaSeconds, "sim_s")
	l.res.set("simq.cache_swaps_per_kquery", 1e3*float64(sum.CacheSwaps)/n, "count")
	l.res.set("simq.goodput_qps", sum.Goodput, "1/sim_s")
	l.res.set("simq.slo_attainment", sum.E2ESLO, "share")
	l.res.set("simq.p99_e2e_ms", sum.P99E2E*1e3, "sim_ms")
	l.res.set("simq.served_accuracy", sum.AvgAccuracy, "pct")
	return nil
}

// dataPlane times the int8 forward pass per call kind on fresh engines
// (first call, then steady calls) and the kernels underneath it on
// three layer shapes taken from the frontier.
func (l *ledger) dataPlane(reps, parent int) error {
	m, err := forwardCycle()
	if err != nil {
		return err
	}
	in, _ := fwdInput(m, l.seed)
	steadyCalls := 1
	if reps > 1 {
		steadyCalls = 2
	}
	steady := map[string][]float64{}
	var prepare []float64
	var flops, steadySec float64
	var allocs, calls uint64
	for rep := 0; rep < reps; rep++ {
		sec := l.tr.begin("bench.data_plane", rep, parent)
		e := newFwdEngines(m)
		first := map[string]float64{}
		for _, st := range m.kinds {
			start := time.Now()
			if _, err := e.call(st, in); err != nil {
				e.close()
				return err
			}
			first[st.kind] = float64(l.tr.leaf("infer.forward_first."+st.kind, rep, sec, start, st.batch)) / 1e6
		}
		prep := 0.0
		for _, st := range m.kinds {
			var ms []float64
			for k := 0; k < steadyCalls; k++ {
				m0, _ := mallocs()
				start := time.Now()
				if _, err := e.call(st, in); err != nil {
					e.close()
					return err
				}
				d := l.tr.leaf("infer.forward."+st.kind, rep, sec, start, st.batch)
				m1, _ := mallocs()
				ms = append(ms, float64(d)/1e6)
				flops += float64(st.net.FLOPs()) * float64(st.batch)
				steadySec += d.Seconds()
				allocs += m1 - m0
				calls++
			}
			steady[st.kind] = append(steady[st.kind], ms...)
			prep += max(first[st.kind]-median(ms), 0)
		}
		prepare = append(prepare, prep)
		e.close()
		l.tr.end(sec, len(m.kinds)*(1+steadyCalls))
		l.res.Attempted += int64(len(m.kinds) * (1 + steadyCalls))
	}
	l.res.set("infer.forward_small_ms", median(steady["S"]), "ms")
	l.res.set("infer.forward_large_ms", median(steady["L"]), "ms")
	l.res.set("infer.forward_batch4_ms_per_img", median(steady["B4"])/4, "ms")
	l.res.set("infer.forward_resnet_ms", median(steady["R"]), "ms")
	l.res.set("infer.prepare_ms", median(prepare), "ms")
	l.res.set("infer.achieved_gops", flops/steadySec/1e9, "Gop/s")
	l.res.set("infer.allocs_per_forward", float64(allocs)/float64(calls), "count")
	return l.kernels(m, parent)
}

// heaviest returns the layer with the most multiply-accumulates among
// those keep accepts.
func heaviest(sn *supernet.SubNet, keep func(*nn.Layer) bool) *nn.Layer {
	var best *nn.Layer
	for i := range sn.Model.Layers {
		l := &sn.Model.Layers[i]
		if keep(l) && (best == nil || l.MACs() > best.MACs()) {
			best = l
		}
	}
	return best
}

// kernelCase is one layer shape with its operands.
type kernelCase struct {
	layer *nn.Layer
	in, w *tensor.Int8
	p     tensor.ConvParams
}

func newKernelCase(l *nn.Layer) kernelCase {
	k := kernelCase{layer: l, p: tensor.ConvParams{StrideH: l.Stride, StrideW: l.Stride, PadH: l.Pad, PadW: l.Pad}}
	wc := l.C
	if l.Kind == nn.DepthwiseConv {
		k.p.Groups, wc = l.C, 1
	}
	k.in = tensor.RandomInt8(tensor.Shape{N: 1, C: l.C, H: l.InH, W: l.InW}, 7)
	k.w = tensor.RandomInt8(tensor.Shape{N: l.K, C: wc, H: l.R, W: l.S}, 8)
	return k
}

// time runs the blocked convolution `calls` times (after one warming
// call) and returns seconds per call.
func (k kernelCase) time(tr *tracer, name string, parent, calls int, pool *tensor.Pool) (float64, error) {
	var out tensor.Int32
	var sc tensor.Scratch
	if err := tensor.Conv2DBlockedInto(&out, k.in, k.w, 0, k.p, nil, &sc, pool); err != nil {
		return 0, fmt.Errorf("%s (%s): %w", name, k.layer.Name, err)
	}
	start := time.Now()
	for i := 0; i < calls; i++ {
		if err := tensor.Conv2DBlockedInto(&out, k.in, k.w, 0, k.p, nil, &sc, pool); err != nil {
			return 0, err
		}
	}
	return tr.leaf(name, 0, parent, start, calls).Seconds() / float64(calls), nil
}

// kernels times Conv2DBlockedInto on the heaviest dense 3x3 layer of
// the smallest resnet50 SubNet and the heaviest pointwise and depthwise
// layers of the smallest mobilenetv3 SubNet, plus im2col, requantize
// and the worker pool's speed-up. Throughputs in GB/s divide bytes
// COMPUTED from the tensor sizes by the time; nothing here measures
// memory traffic.
func (l *ledger) kernels(m *fwdModels, parent int) error {
	s, r := m.kinds[0].net, m.kinds[3].net
	dense := heaviest(r, func(l *nn.Layer) bool { return l.Kind == nn.Conv && l.R == 3 && l.S == 3 })
	point := heaviest(s, func(l *nn.Layer) bool { return l.Kind == nn.Conv && l.R == 1 && l.S == 1 })
	depth := heaviest(s, func(l *nn.Layer) bool { return l.Kind == nn.DepthwiseConv })
	if dense == nil || point == nil || depth == nil {
		return fmt.Errorf("kernels: the frontier has no dense 3x3, pointwise or depthwise layer")
	}
	pool := tensor.NewPool(0)
	defer pool.Close()
	const calls = 8
	gops := func(l *nn.Layer, sec float64) float64 { return float64(l.FLOPs()) / sec / 1e9 }

	dk := newKernelCase(dense)
	denseSec, err := dk.time(l.tr, "tensor.conv3x3", parent, calls, pool)
	if err != nil {
		return err
	}
	l.res.set("tensor.conv3x3_gops", gops(dense, denseSec), "Gop/s")
	pointSec, err := newKernelCase(point).time(l.tr, "tensor.pointwise", parent, calls, pool)
	if err != nil {
		return err
	}
	l.res.set("tensor.pointwise_gops", gops(point, pointSec), "Gop/s")
	depthSec, err := newKernelCase(depth).time(l.tr, "tensor.depthwise", parent, calls, pool)
	if err != nil {
		return err
	}
	l.res.set("tensor.depthwise_gops", gops(depth, depthSec), "Gop/s")

	oneSec, err := dk.time(l.tr, "tensor.conv3x3_one_worker", parent, calls, nil)
	if err != nil {
		return err
	}
	l.res.set("tensor.pool_speedup_x", oneSec/denseSec, "x")

	start := time.Now()
	var colsBytes int
	for i := 0; i < calls; i++ {
		colsBytes = len(tensor.Im2Col(dk.in, dense.R, dense.S, 0, dk.p).Data)
	}
	sec := l.tr.leaf("tensor.im2col", 0, parent, start, calls).Seconds() / calls
	l.res.set("tensor.im2col_gbps", float64(len(dk.in.Data)+colsBytes)/sec/1e9, "GB/s")

	acc, err := tensor.Conv2DBlocked(dk.in, dk.w, 0, dk.p, pool)
	if err != nil {
		return err
	}
	var dst tensor.Int8
	q := tensor.QuantParams{Scale: 1.0 / 64, ZeroPoint: 0}
	tensor.RequantizeInto(&dst, acc, q)
	start = time.Now()
	for i := 0; i < 4*calls; i++ {
		tensor.RequantizeInto(&dst, acc, q)
	}
	sec = l.tr.leaf("tensor.requantize", 0, parent, start, 4*calls).Seconds() / (4 * calls)
	// Four bytes read and one written per element.
	l.res.set("tensor.requantize_gbps", float64(5*len(acc.Data))/sec/1e9, "GB/s")
	return nil
}
