package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"sushi/internal/core"
	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/simq"
	"sushi/internal/workload"
)

// simWorkload describes one virtual-time workload: the fleet, the
// engine's queueing discipline, the arrival process and the per-query
// constraint draw. Every round builds all of it afresh from the seed.
type simWorkload struct {
	name string
	// queries is the measured stream length per round; warm the untimed
	// warm-up stream that runs first on the same deployment.
	queries, warm int
	deploy        func() (*core.ClusterDeployment, error)
	options       func(dep *core.ClusterDeployment) simq.Options
	// arrivals builds the lazy arrival stream from the model's service
	// span (rates are stated in multiples of one replica's capacity).
	arrivals func(m modelSpec, seed int64) (workload.ArrivalStream, error)
	// maker returns the function that mints the i-th query at its
	// arrival instant.
	maker func(m modelSpec, seed int64) func(i int, t float64) sched.Query
	// mechanism lists what the run failed to exercise (empty = fine).
	mechanism func(r *simq.Result) []string
}

func deployMobileNet(copt core.ClusterOptions) (*core.ClusterDeployment, error) {
	return core.DeployCluster(core.DeployOptions{Workload: core.MobileNetV3, Policy: sched.StrictLatency}, copt)
}

// meanCapacity is one replica's service rate (queries per virtual
// second) when it serves the frontier's mid-latency: the yardstick the
// arrival rates are multiples of.
func meanCapacity(m modelSpec) float64 {
	return 1e3 / ((m.FastestMS + m.SlowestMS) / 2)
}

// simOverload is the open-loop overload case: Poisson arrivals at twice
// what four replicas serve at mid-frontier latency, bounded queues with
// degrade admission, load-aware budget debiting and deadline drops.
// Budgets are continuous (and debited by continuous waits), so the
// scheduler's exact-bits memo never hits. The queue cap is 4: budgets
// end at 1.5x the slowest row (about 8 ms) and no service is shorter
// than 1.5 ms, so deadline drops alone keep a queue below 6 and a
// larger cap would never reach admission control.
var simOverload = simWorkload{
	name:    "sim_overload",
	queries: 250_000,
	warm:    40_000,
	deploy: func() (*core.ClusterDeployment, error) {
		return deployMobileNet(core.ClusterOptions{Replicas: 4})
	},
	options: func(*core.ClusterDeployment) simq.Options {
		return simq.Options{QueueCap: 4, Admission: simq.Degrade, LoadAware: true, Drop: true,
			Router: serving.NewLeastLoaded()}
	},
	arrivals: func(m modelSpec, seed int64) (workload.ArrivalStream, error) {
		return workload.Poisson{Rate: 2 * 4 * meanCapacity(m)}.Stream(seed)
	},
	maker: func(m modelSpec, seed int64) func(int, float64) sched.Query {
		rng := rand.New(rand.NewSource(seed))
		return func(i int, _ float64) sched.Query {
			return sched.Query{ID: i, MaxLatency: (m.LatLoMS + rng.Float64()*(m.LatHiMS-m.LatLoMS)) * 1e-3}
		}
	},
	mechanism: func(r *simq.Result) []string {
		var miss []string
		if r.Dropped == 0 {
			miss = append(miss, "no query was dropped: the fleet was not overloaded")
		}
		if r.Degraded == 0 {
			miss = append(miss, "degrade admission never fired")
		}
		return miss
	},
}

// elasticClasses are sim_elastic's three discrete budget/SLO classes,
// as multiples of the slowest frontier row's service latency.
var elasticClasses = []struct {
	class  string
	budget float64
}{{"gold", 2}, {"silver", 3}, {"bronze", 4.5}}

// simElastic uses the engine differently: an autoscaled 2..8 fleet
// under diurnal load that averages four replica-capacities, three
// discrete classes, micro-batching B=4 W=2ms and reject admission. The
// fleet keeps up, so almost nothing drops; the batch former, the
// replica lifecycle and the per-class accumulators do the work, and the
// discrete budgets keep the decision memo hot.
var simElastic = simWorkload{
	name:    "sim_elastic",
	queries: 400_000,
	warm:    60_000,
	deploy: func() (*core.ClusterDeployment, error) {
		return deployMobileNet(core.ClusterOptions{Autoscale: &core.AutoscaleOptions{
			Min: 2, Max: 8, Policy: "utilization", Interval: 0.25}})
	},
	options: func(dep *core.ClusterDeployment) simq.Options {
		return simq.Options{QueueCap: 16, Admission: simq.Reject, LoadAware: true, Drop: true,
			Router:    serving.NewLeastLoaded(),
			Batching:  simq.Batching{MaxBatch: 4, Window: 2e-3},
			Autoscale: dep.Autoscale}
	},
	arrivals: func(m modelSpec, seed int64) (workload.ArrivalStream, error) {
		// One replica serving the slowest row is the capacity unit here:
		// with budgets this loose the scheduler always picks it.
		unit := 1e3 / m.SlowestMS
		return workload.Diurnal{BaseRate: 4 * unit, Amplitude: 1, Period: 60}.Stream(seed)
	},
	maker: func(m modelSpec, seed int64) func(int, float64) sched.Query {
		rng := rand.New(rand.NewSource(seed))
		return func(i int, _ float64) sched.Query {
			c := elasticClasses[rng.Intn(len(elasticClasses))]
			return sched.Query{ID: i, Class: c.class, MaxLatency: c.budget * m.SlowestMS * 1e-3}
		}
	},
	mechanism: func(r *simq.Result) []string {
		var miss []string
		if r.ScaleUps == 0 {
			miss = append(miss, "the autoscaler never scaled up")
		}
		if !(r.Summary.AvgBatchSize > 1) {
			miss = append(miss, fmt.Sprintf("mean batch size %.3f: the batch former never batched", r.Summary.AvgBatchSize))
		}
		return miss
	},
}

// simRound is one fresh-deployment round.
type simRound struct {
	setupS, wallS float64
	cpu           time.Duration
	res           *simq.Result
	digest        string
	// heapMB is the heap the finished run still holds (result, fleet,
	// engine), after a forced collection.
	heapMB float64
}

// simInputDigest fingerprints the generated stream: the first draws of
// the arrival process and of the constraint maker, from fresh instances
// (so the run's own generators stay untouched).
func simInputDigest(w *simWorkload, m modelSpec, seed int64) (string, error) {
	stream, err := w.arrivals(m, subSeed(seed, 11))
	if err != nil {
		return "", err
	}
	mk := w.maker(m, subSeed(seed, 12))
	h := sha256.New()
	fmt.Fprintf(h, "%s/%d/", w.name, w.queries)
	var b [8]byte
	for i := 0; i < 4096; i++ {
		t, _ := stream()
		q := mk(i, t)
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(t))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(q.MaxLatency))
		h.Write(b[:])
		h.Write([]byte(q.Class))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// outcomeDigest fingerprints a run's exact simulated outcome: every
// query's fate, replica, SubNet and finish instant.
func outcomeDigest(r *simq.Result) string {
	h := sha256.New()
	buf := make([]byte, 0, 32*1024)
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		flags := byte(o.Reason)
		if o.Degraded {
			flags |= 0x80
		}
		buf = append(buf, flags, byte(o.Replica), byte(o.Row), byte(o.Batch))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.Finish))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.E2ELatency))
		if len(buf) > 31*1024 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// conservation checks arrivals = served + each drop reason, against
// both the result's counters and a recount of the outcomes.
func conservation(r *simq.Result) string {
	if r.Queries != r.Served+r.Dropped || r.Dropped != r.DeadlineDrops+r.Rejected+r.Shed {
		return fmt.Sprintf("counters do not add up: %d queries, %d served, %d dropped (%d deadline, %d rejected, %d shed)",
			r.Queries, r.Served, r.Dropped, r.DeadlineDrops, r.Rejected, r.Shed)
	}
	served := 0
	for i := range r.Outcomes {
		if !r.Outcomes[i].Dropped {
			served++
		}
	}
	if served != r.Served || len(r.Outcomes) != r.Queries {
		return fmt.Sprintf("outcomes disagree with counters: %d outcomes, %d served by recount, %d by counter",
			len(r.Outcomes), served, r.Served)
	}
	return ""
}

// simDeployment builds one round's deployment, engine and generators.
type simDeployment struct {
	dep  *core.ClusterDeployment
	eng  *simq.Engine
	spec modelSpec
}

func (w *simWorkload) build() (*simDeployment, error) {
	dep, err := w.deploy()
	if err != nil {
		return nil, err
	}
	eng, err := simq.FromCluster(dep.Cluster, w.options(dep))
	if err != nil {
		return nil, err
	}
	return &simDeployment{dep: dep, eng: eng, spec: modelSpecs(dep)[0]}, nil
}

// run plays n queries of the seeded stream through the engine.
func (d *simDeployment) run(w *simWorkload, n int, seed int64) (*simq.Result, error) {
	stream, err := w.arrivals(d.spec, subSeed(seed, 11))
	if err != nil {
		return nil, err
	}
	return d.eng.RunProcess(n, stream, w.maker(d.spec, subSeed(seed, 12)))
}

// runSimRound sets a fresh deployment up (warm-up included), then
// measures one full stream.
func runSimRound(w *simWorkload, seed int64) (simRound, error) {
	var r simRound
	setupStart := time.Now()
	d, err := w.build()
	if err != nil {
		return r, err
	}
	// Warm-up on the same deployment with its own seed: caches, memos
	// and the engine's pools reach their steady state before the clock.
	if _, err := d.run(w, w.warm, subSeed(seed, 13)); err != nil {
		return r, err
	}
	r.setupS = time.Since(setupStart).Seconds()

	cpu0, start := selfCPU(), time.Now()
	r.res, err = d.run(w, w.queries, seed)
	r.wallS, r.cpu = time.Since(start).Seconds(), selfCPU()-cpu0
	if err != nil {
		return r, err
	}
	r.digest = outcomeDigest(r.res)
	r.heapMB = retainedHeapMB()
	runtime.KeepAlive(d)
	return r, nil
}

// runSim is the end-to-end (trace off) run of one simq workload: rounds
// of one fixed seeded stream until the measured time adds up to
// `seconds` (at least `rounds`). Simulated outcomes are exact per seed,
// so every round must reproduce the first round's digest.
func runSim(w *simWorkload, seed int64, seconds float64, res *runResult) error {
	probe, err := w.build()
	if err != nil {
		return err
	}
	if res.Env.StreamSHA256, err = simInputDigest(w, probe.spec, seed); err != nil {
		return err
	}
	var rs []simRound
	measured := 0.0
	for len(rs) < rounds || measured < seconds {
		r, err := runSimRound(w, seed)
		if err != nil {
			return err
		}
		res.Attempted += int64(w.queries)
		if msg := conservation(r.res); msg != "" {
			res.Failed++
			note(&res.Notes, "conservation: "+msg)
		}
		if len(rs) > 0 && r.digest != rs[0].digest {
			res.Failed++
			note(&res.Notes, fmt.Sprintf("round %d outcome digest %s differs from round 0 %s: same seed, different outcome", len(rs), r.digest, rs[0].digest))
		}
		measured += r.wallS
		// Outcomes are a quarter of a kilobyte per query; only the
		// counters and the summary are read again.
		r.res.Outcomes = nil
		rs = append(rs, r)
	}
	first := rs[0].res
	for _, miss := range w.mechanism(first) {
		res.Failed++
		note(&res.Notes, "mechanism: "+miss)
	}
	res.Env.OutcomeSHA256 = rs[0].digest
	n := float64(w.queries)
	res.set("setup_s", quietLow(mapOf(rs, func(r simRound) float64 { return r.setupS })), "s")
	// Host-time figures: the quiet decile over the rounds (see quietLow).
	res.set("queries_per_s", quietHigh(mapOf(rs, func(r simRound) float64 { return n / r.wallS })), "1/s")
	// The mean, not the median: the batch former puts mass points into
	// the simulated latency distribution, and a median sitting on one
	// reads identically for different seeds.
	res.set("latency_typical_us", first.Summary.AvgE2E*1e6, "us")
	res.set("latency_tail_us", first.Summary.P99E2E*1e6, "us")
	res.set("cpu_us_per_query", quietLow(mapOf(rs, func(r simRound) float64 { return float64(r.cpu.Microseconds()) / n })), "us")
	res.set("memory_mb", medianOf(rs, func(r simRound) float64 { return r.heapMB }), "MB")
	res.Samples = fmt.Sprintf("%d rounds of %d simulated queries; latencies are simulated time over %d served queries; SLO %.4f, served accuracy %.3f, dropped %d (deadline %d, rejected %d), degraded %d, scale-ups %d, mean batch %.2f",
		len(rs), w.queries, first.Served, first.Summary.E2ESLO, first.Summary.AvgAccuracy,
		first.Dropped, first.DeadlineDrops, first.Rejected, first.Degraded, first.ScaleUps, first.Summary.AvgBatchSize)
	return nil
}
