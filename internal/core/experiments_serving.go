package core

import (
	"fmt"
	"math"
	"time"

	"sushi/internal/latencytable"
	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/workload"
)

// streamFor samples a uniform constraint stream spanning the frontier's
// accuracy and latency ranges on the given system.
func streamFor(sys *serving.System, n int, seed int64) ([]sched.Query, error) {
	tab := sys.Table()
	acc := workload.Range{
		Lo: tab.SubNets[0].Accuracy - 0.2,
		Hi: tab.SubNets[tab.Rows()-1].Accuracy,
	}
	lat := workload.Range{
		Lo: tab.Lookup(0, 0) * 0.9,
		Hi: tab.Lookup(tab.Rows()-1, 0) * 1.1,
	}
	return workload.Uniform(n, acc, lat, seed)
}

// serveUniform boots one system of workload w with opts, serves it n
// uniform constraint queries (streamFor, seeded) in a closed loop, and
// returns the outcomes with their summary.
func serveUniform(w Workload, opts serving.Options, n int, seed int64) ([]serving.Served, serving.Summary, error) {
	super, fr, err := frontierFor(w)
	if err != nil {
		return nil, serving.Summary{}, err
	}
	sys, err := serving.New(super, fr, opts)
	if err != nil {
		return nil, serving.Summary{}, err
	}
	qs, err := streamFor(sys, n, seed)
	if err != nil {
		return nil, serving.Summary{}, err
	}
	rs, err := sys.ServeAll(qs)
	if err != nil {
		return nil, serving.Summary{}, err
	}
	return rs, serving.Summarize(rs), nil
}

// probeLatencies reads the budget scale the open-loop runs calibrate
// from: the service latency of the frontier's fastest and slowest
// SubNet on column 0 of the table a default deployment of w on s's
// board builds (the build memo hands the fleets the same table).
func (s setting) probeLatencies(w Workload) (latLo, latHi float64, err error) {
	super, fr, err := frontierFor(w)
	if err != nil {
		return 0, 0, err
	}
	opts, err := s.options(DeployOptions{Policy: sched.StrictLatency})
	if err != nil {
		return 0, 0, err
	}
	table, _, err := serving.BuildTable(super, fr, opts)
	if err != nil {
		return 0, 0, err
	}
	return table.Lookup(0, 0), table.Lookup(table.Rows()-1, 0), nil
}

// Fig15 regenerates the scheduler functional evaluation (Fig. 15):
// served latency vs latency constraint under STRICT_LATENCY and served
// accuracy vs accuracy constraint under STRICT_ACCURACY.
func (s setting) Fig15(w Workload, policy sched.Policy, queries int) (*Result, error) {
	if queries <= 0 {
		queries = 200
	}
	opts, err := s.options(DeployOptions{Policy: policy})
	if err != nil {
		return nil, err
	}
	rs, _, err := serveUniform(w, opts, queries, 15)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "fig15",
		Title:  fmt.Sprintf("Scheduler functional evaluation — %s, %v", w, policy),
		Header: []string{"query", "constraint", "served", "SubNet", "ok"},
	}
	violations, feasible := 0, 0
	for i, r := range rs {
		var constraint, served string
		var ok bool
		if policy == sched.StrictLatency {
			constraint = ms(r.Query.MaxLatency) + " ms"
			served = ms(r.Latency) + " ms"
			ok = r.Latency <= r.Query.MaxLatency
		} else {
			constraint = f2(r.Query.MinAccuracy) + " %"
			served = f2(r.Accuracy) + " %"
			ok = r.Accuracy >= r.Query.MinAccuracy
		}
		if r.Feasible {
			feasible++
			if !ok {
				violations++
			}
		}
		// Sample every 10th row to keep the table readable.
		if i%10 == 0 {
			mark := "yes"
			if !ok {
				mark = "NO"
			}
			res.Rows = append(res.Rows, []string{
				fmt.Sprintf("%d", r.Query.ID), constraint, served, r.SubNet, mark,
			})
		}
	}
	res.Metrics = map[string]float64{"violations": float64(violations)}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d/%d feasible queries met the hard constraint (%d violations)", feasible-violations, feasible, violations),
		"paper: all dots sit on the feasible side of y=x when the constraint is satisfiable")
	return res, nil
}

// Fig16 regenerates the end-to-end comparison (Fig. 16): No-Sushi vs
// Sushi w/o Sched vs Sushi on a random query stream.
func (s setting) Fig16(w Workload, queries int) (*Result, error) {
	if queries <= 0 {
		queries = 200
	}
	res := &Result{
		Name:   "fig16",
		Title:  fmt.Sprintf("End-to-end latency/accuracy — %s", w),
		Header: []string{"system", "avg lat(ms)", "p99 lat(ms)", "avg acc%", "lat SLO%", "hit", "swaps"},
	}
	var noPB, full serving.Summary
	for _, mode := range []serving.Mode{serving.NoPB, serving.StateUnaware, serving.Full} {
		opts, err := s.options(DeployOptions{Mode: mode})
		if err != nil {
			return nil, err
		}
		opts.StaticColumn = -1
		_, sum, err := serveUniform(w, opts, queries, 16)
		if err != nil {
			return nil, err
		}
		switch mode {
		case serving.NoPB:
			noPB = sum
		case serving.Full:
			full = sum
		}
		res.Rows = append(res.Rows, []string{
			mode.String(), ms(sum.AvgLatency), ms(sum.P99Latency), f2(sum.AvgAccuracy),
			f1(sum.LatencySLO * 100), f2(sum.AvgHitRatio), fmt.Sprintf("%d", sum.CacheSwaps),
		})
	}
	cut := 100 * (1 - full.AvgLatency/noPB.AvgLatency)
	res.Metrics = map[string]float64{"latency_cut_pct": cut}
	res.Notes = append(res.Notes,
		fmt.Sprintf("Sushi cuts average latency %.1f%% vs No-Sushi at identical served accuracy (paper: %s%% on its simulator)",
			cut, published(w, "latency_cut_pct").band()))
	return res, nil
}

// Fig17 regenerates the cache-window ablation (Fig. 17/18): the
// accuracy/latency outcome as the averaging window Q varies, with the
// cache-update cost charged to the query path (Appendix A.1's trade-off).
func (s setting) Fig17(w Workload, queries int) (*Result, error) {
	if queries <= 0 {
		queries = 200
	}
	res := &Result{
		Name:   "fig17",
		Title:  fmt.Sprintf("Cache-update window Q sweep (swap cost charged) — %s", w),
		Header: []string{"Q", "avg lat(ms)", "avg acc%", "swaps", "hit"},
	}
	bestQ, bestLat := 0, math.Inf(1)
	for _, q := range []int{1, 2, 4, 8, 10, 15} {
		// A uniform random stream: the served-SubNet sequence churns, so
		// Q=1 re-targets the cache after every query and pays a fill
		// each time — exactly the "prohibitively expensive" regime of
		// Appendix A.1 — while larger windows smooth the mix.
		opts, err := s.options(DeployOptions{Q: q, ChargeSwapLatency: true})
		if err != nil {
			return nil, err
		}
		_, sum, err := serveUniform(w, opts, queries, 17)
		if err != nil {
			return nil, err
		}
		if sum.AvgLatency < bestLat {
			bestQ, bestLat = q, sum.AvgLatency
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", q), ms(sum.AvgLatency), f2(sum.AvgAccuracy),
			fmt.Sprintf("%d", sum.CacheSwaps), f2(sum.AvgHitRatio),
		})
	}
	res.Metrics = map[string]float64{"best_q": float64(bestQ)}
	res.Notes = append(res.Notes,
		fmt.Sprintf("paper: very small Q pays frequent off-chip cache fills; very large Q serves a stale cache — the best window is in between (Q≈%s)",
			published(w, "best_q").band()))
	return res, nil
}

// Table5 regenerates the latency-table size ablation (Table 5): average
// latency improvement of SUSHI over SUSHI w/o scheduler as |S| grows.
func (s setting) Table5(w Workload, queries int) (*Result, error) {
	if queries <= 0 {
		queries = 150
	}
	res := &Result{
		Name:   "table5",
		Title:  fmt.Sprintf("Avg latency improvement vs table size — %s (normalized to SUSHI w/o scheduler)", w),
		Header: []string{"cols", "Sushi(ms)", "w/oSched(ms)", "improvement%"},
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, cols := range []int{10, 40, 80, 100, 500} {
		var lat [2]float64
		for mi, mode := range []serving.Mode{serving.Full, serving.StateUnaware} {
			opts, err := s.options(DeployOptions{Mode: mode, Candidates: cols, Seed: 2})
			if err != nil {
				return nil, err
			}
			opts.StaticColumn = -1
			_, sum, err := serveUniform(w, opts, queries, 55)
			if err != nil {
				return nil, err
			}
			lat[mi] = sum.AvgLatency
		}
		imp := 100 * (1 - lat[0]/lat[1])
		lo, hi = math.Min(lo, imp), math.Max(hi, imp)
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", cols), ms(lat[0]), ms(lat[1]), f2(imp),
		})
	}
	res.Metrics = map[string]float64{"improvement_min_pct": lo, "improvement_max_pct": hi}
	rn, mb := published(ResNet50, "improvement_min_pct"), published(MobileNetV3, "improvement_min_pct")
	res.Notes = append(res.Notes,
		fmt.Sprintf("paper: ResNet50 improves %g%%->%g%% and saturates; MobV3 stays ~%s%% because the PB already holds most of each SubNet",
			rn.lo, rn.hi, mb.band()))
	return res, nil
}

// Table6 regenerates the lookup-latency microbenchmark (Table 6): the
// time to run Algorithm 1's argmin-distance column search as |S| grows.
func (s setting) Table6(w Workload) (*Result, error) {
	super, fr, err := frontierFor(w)
	if err != nil {
		return nil, err
	}
	cfg := s.board
	res := &Result{
		Name:   "table6",
		Title:  fmt.Sprintf("Column-search time vs table size — %s", w),
		Header: []string{"cols", "nearest-graph(us)", "lookup(ns)"},
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, cols := range []int{100, 200, 500, 1000, 2000} {
		cands, err := latencytable.Candidates(super, fr, latencytable.CandidateOptions{
			Budget: cfg.PBBytes, Count: cols, Seed: 3,
		})
		if err != nil {
			return nil, err
		}
		tab, err := latencytable.Build(cfg, fr, cands)
		if err != nil {
			return nil, err
		}
		v := fr[len(fr)/2].Vector()
		const iters = 200
		start := time.Now()
		for i := 0; i < iters; i++ {
			tab.NearestGraph(v)
		}
		nearestUS := float64(time.Since(start).Microseconds()) / iters
		lo, hi = math.Min(lo, nearestUS), math.Max(hi, nearestUS)
		start = time.Now()
		const lookups = 1 << 16
		sink := 0.0
		for i := 0; i < lookups; i++ {
			sink += tab.Lookup(i%tab.Rows(), i%tab.Cols())
		}
		lookupNS := float64(time.Since(start).Nanoseconds()) / lookups
		_ = sink
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", tab.Cols()), f2(nearestUS), f2(lookupNS),
		})
	}
	res.Metrics = map[string]float64{"nearest_min_us": lo, "nearest_max_us": hi}
	res.Notes = append(res.Notes,
		fmt.Sprintf("paper: %s us for 100-2000 columns — under 1/1000 of inference time; ours is the same order",
			published("", "nearest_min_us").band()))
	return res, nil
}

// HitRatioA4 regenerates the cache-hit study (Appendix A.4).
func (s setting) HitRatioA4(queries int) (*Result, error) {
	if queries <= 0 {
		queries = 150
	}
	res := &Result{
		Name:    "hitratio",
		Title:   "Cache-hit ratio ||SN∩G||2/||SN||2 (Appendix A.4)",
		Header:  []string{"workload", "avg hit ratio", "paper"},
		Metrics: map[string]float64{},
	}
	opts, err := s.options(DeployOptions{})
	if err != nil {
		return nil, err
	}
	for _, w := range []Workload{ResNet50, MobileNetV3} {
		_, sum, err := serveUniform(w, opts, queries, 44)
		if err != nil {
			return nil, err
		}
		key := "hit_ratio_" + string(w)
		res.Metrics[key] = sum.AvgHitRatio
		res.Rows = append(res.Rows, []string{string(w), f2(sum.AvgHitRatio), published("", key).band()})
	}
	res.Notes = append(res.Notes,
		"the ratio is higher for smaller models: the PB holds a larger fraction of their SubNets")
	return res, nil
}

// AblationAvg compares the paper's running-average SubGraph prediction
// with pure intersection (§3.3's design argument): averaging preserves
// information about kernels/channels that are frequent but not universal
// in the window, so it should match or beat intersection.
func (s setting) AblationAvg(w Workload, queries int) (*Result, error) {
	if queries <= 0 {
		queries = 150
	}
	res := &Result{
		Name:   "ablation-avg",
		Title:  fmt.Sprintf("Running average vs pure intersection for cache prediction — %s", w),
		Header: []string{"predictor", "avg lat(ms)", "avg hit", "swaps"},
	}
	opts, err := s.options(DeployOptions{})
	if err != nil {
		return nil, err
	}
	var lat [2]float64
	for i, useInter := range []bool{false, true} {
		opts.UseIntersection = useInter
		_, sum, err := serveUniform(w, opts, queries, 31)
		if err != nil {
			return nil, err
		}
		lat[i] = sum.AvgLatency
		name := "running average"
		if useInter {
			name = "intersection"
		}
		res.Rows = append(res.Rows, []string{
			name, ms(sum.AvgLatency), f2(sum.AvgHitRatio), fmt.Sprintf("%d", sum.CacheSwaps),
		})
	}
	res.Metrics = map[string]float64{"avg_gain_pct": 100 * (1 - lat[0]/lat[1])}
	res.Notes = append(res.Notes,
		"paper §3.3: intersection loses information about frequent-but-not-universal kernels; averaging keeps it")
	return res, nil
}

// Overload regenerates §1's motivating claim as a measurable experiment:
// under transient overload, the single static high-accuracy model drops
// queries and misses deadlines, while SUSHI's load-aware navigation of
// the latency/accuracy space keeps serving (at reduced accuracy). Each
// arm runs on its own single accelerator: a fresh one-replica
// deployment.
func (s setting) Overload(w Workload, queries int) (*Result, error) {
	if queries <= 0 {
		queries = 120
	}
	_, fr, err := frontierFor(w)
	if err != nil {
		return nil, err
	}
	_, latHi, err := s.probeLatencies(w)
	if err != nil {
		return nil, err
	}
	budget := latHi * 1.1
	res := &Result{
		Name:   "overload",
		Title:  fmt.Sprintf("Transient overload: static top model vs load-aware SUSHI — %s", w),
		Header: []string{"rate(x capacity)", "system", "E2E SLO%", "drops", "avg acc%", "avg queue(ms)"},
	}
	capacity := 1.0 / budget // top-model service rate
	// The static arm's lead in drops over the overloaded rates, and
	// SUSHI's lead in SLO attainment over every rate, each at its least.
	dropGap, sloGain := math.Inf(1), math.Inf(1)
	for _, factor := range []float64{0.5, 1.5, 3.0} {
		arr, err := workload.Poisson{Rate: capacity * factor}.Times(queries, 11)
		if err != nil {
			return nil, err
		}
		var arms [2]serving.Summary
		for ai, arm := range []struct {
			name      string
			staticTop bool
		}{{"static top model", true}, {"load-aware SUSHI", false}} {
			qs := make([]serving.TimedQuery, queries)
			for i := range qs {
				q := sched.Query{ID: i, MaxLatency: budget}
				if arm.staticTop {
					q.MinAccuracy = fr[len(fr)-1].Accuracy
				}
				qs[i] = serving.TimedQuery{Query: q, Arrival: arr[i]}
			}
			dep, err := DeployCluster(DeployOptions{Workload: w, Accel: &s.board, Policy: sched.StrictLatency}, ClusterOptions{})
			if err != nil {
				return nil, err
			}
			run, err := dep.Simulate(qs, SimOptions{Drop: true, LoadAware: !arm.staticTop})
			if err != nil {
				return nil, err
			}
			sum := run.Summary
			arms[ai] = sum
			res.Rows = append(res.Rows, []string{
				fmt.Sprintf("%.1fx", factor), arm.name,
				f1(sum.E2ESLO * 100),
				fmt.Sprintf("%d", sum.Dropped),
				f2(sum.AvgAccuracy),
				ms(sum.AvgQueueDelay),
			})
		}
		if factor > 1 {
			dropGap = math.Min(dropGap, float64(arms[0].Dropped-arms[1].Dropped))
		}
		sloGain = math.Min(sloGain, 100*(arms[1].E2ESLO-arms[0].E2ESLO))
	}
	res.Metrics = map[string]float64{"drop_gap_min": dropGap, "slo_gain_min_pp": sloGain}
	res.Notes = append(res.Notes,
		"§1: \"a higher accuracy model may result in dropped queries during periods of transient overloads\" — reproduced",
		"load-aware SUSHI trades accuracy for deadline attainment exactly when the queue builds")
	return res, nil
}
