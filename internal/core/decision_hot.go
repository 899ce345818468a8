package core

import (
	"fmt"

	"sushi/internal/accel"
	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/workload"
)

// decisionHotReplicas and decisionHotSeed fix the decisionhot fleet: 4
// replicas is large enough that routing has real choices, small enough
// that the loop is dominated by per-query decision work rather than
// fleet bookkeeping.
const (
	decisionHotReplicas = 4
	decisionHotSeed     = 41
)

// decisionHotStats aggregates one decisionHotLoop run.
type decisionHotStats struct {
	// perRouter is indexed fastest=0, affinity=1 (queries alternate).
	perRouter [2]struct {
		decisions int
		accSum    float64
		latSum    float64
	}
	// subnets counts distinct served table rows across the run.
	subnets int
}

// decisionHotLoop is the decision hot path in a tight loop: n queries
// with seeded uniform latency budgets alternate between the fastest and
// affinity routers over a 4-replica fleet, and each pick is served
// virtually (Schedule + window observe + Q-periodic cache updates, no
// queueing). It is the shared engine of the DecisionHot experiment and
// BenchmarkDecisionHot: per iteration it exercises router scoring off
// the published cache snapshot, the scheduler's binary-search selection
// and the Q-boundary window-memo lookup.
func decisionHotLoop(w Workload, n int) (decisionHotStats, error) {
	var st decisionHotStats
	super, fr, err := frontierFor(w)
	if err != nil {
		return st, err
	}
	sopt := serving.Options{
		Accel:      accel.ZCU104(),
		Policy:     sched.StrictLatency,
		Q:          4,
		Mode:       serving.Full,
		Candidates: 16,
		Seed:       1,
	}
	table, _, err := serving.BuildTable(super, fr, sopt)
	if err != nil {
		return st, err
	}
	// Budgets span tight (only the small end feasible) to loose (the
	// whole frontier fits), so both routers and the scheduler see the
	// full spread of decisions rather than one hot answer.
	latLo, latHi := table.Lookup(0, 0), table.Lookup(table.Rows()-1, 0)
	qs, err := workload.Uniform(n, workload.Range{},
		workload.Range{Lo: latLo * 1.05, Hi: latHi * 1.5}, decisionHotSeed)
	if err != nil {
		return st, err
	}
	systems, err := BootReplicaSystems(super, fr, sopt, table, decisionHotReplicas)
	if err != nil {
		return st, err
	}
	reps := make([]*serving.Replica, len(systems))
	for i, sys := range systems {
		reps[i] = serving.NewReplica(i, sys)
	}
	routers := [2]serving.Router{serving.NewFastest(), serving.NewAffinity()}
	served := make(map[int]struct{}, table.Rows())
	for i, q := range qs {
		q.ID = i
		r := i & 1
		idx := routers[r].Pick(q, reps)
		out, err := reps[idx].ServeVirtual(q, q, false)
		if err != nil {
			return st, err
		}
		pr := &st.perRouter[r]
		pr.decisions++
		pr.accSum += out.Accuracy
		pr.latSum += out.Latency
		served[out.Row] = struct{}{}
	}
	st.subnets = len(served)
	return st, nil
}

// DecisionHot is the decision-path microbenchmark as an experiment:
// queries <= 0 runs the default 20000 iterations of decisionHotLoop.
// Every per-query cost it measures is decision work — router scoring,
// SushiSched selection, Q-periodic cache updates — with no queueing or
// arrival process in the way, so its ns_per_op is the per-decision
// cost.
func DecisionHot(w Workload, queries int) (*Result, error) {
	if queries <= 0 {
		queries = 20000
	}
	st, err := decisionHotLoop(w, queries)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name: "decisionhot",
		Title: fmt.Sprintf("Decision hot path: %d router+schedule decisions over %d replicas — %s",
			queries, decisionHotReplicas, w),
		Header: []string{"router", "decisions", "avg acc%", "avg service(ms)"},
	}
	names := [2]string{"fastest", "affinity"}
	for r, pr := range st.perRouter {
		avgAcc, avgLat := 0.0, 0.0
		if pr.decisions > 0 {
			avgAcc = pr.accSum / float64(pr.decisions)
			avgLat = pr.latSum / float64(pr.decisions)
		}
		res.Rows = append(res.Rows, []string{
			names[r], fmt.Sprintf("%d", pr.decisions), f2(avgAcc), ms(avgLat),
		})
	}
	total := st.perRouter[0].decisions + st.perRouter[1].decisions
	res.Metrics = map[string]float64{
		"decisions":       float64(total),
		"distinct_rows":   float64(st.subnets),
		"avg_acc_fastest": st.perRouter[0].accSum / float64(st.perRouter[0].decisions),
	}
	res.Notes = append(res.Notes,
		"pure decision loop: router scoring + SushiSched selection + Q-periodic cache updates, no queueing or arrival process",
		"queries alternate fastest/affinity so both cached-snapshot scoring paths stay hot",
		"ns_per_op of this experiment IS the per-decision cost")
	return res, nil
}
