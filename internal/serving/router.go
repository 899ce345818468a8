package serving

import (
	"math"
	"math/rand"

	"sushi/internal/sched"
)

// Router decides which replica serves a query. Pick is invoked under
// the cluster's dispatch lock, so implementations may keep unguarded
// state; they must return an index in [0, len(reps)).
type Router interface {
	// Name identifies the routing policy ("round-robin", ...).
	Name() string
	// Pick selects the replica for q.
	Pick(q sched.Query, reps []*Replica) int
}

// NewRoundRobin cycles through replicas in order — the baseline
// stateless dispatcher.
func NewRoundRobin() Router { return &roundRobin{} }

type roundRobin struct{ next int }

func (r *roundRobin) Name() string { return "round-robin" }

func (r *roundRobin) Pick(_ sched.Query, reps []*Replica) int {
	i := r.next % len(reps)
	r.next++
	return i
}

// NewLeastLoaded picks the replica with the smallest queue depth
// (lowest index on ties), the classic join-shortest-queue dispatcher.
func NewLeastLoaded() Router { return leastLoaded{} }

type leastLoaded struct{}

func (leastLoaded) Name() string { return "least-loaded" }

func (leastLoaded) Pick(_ sched.Query, reps []*Replica) int {
	best := 0
	for i := 1; i < len(reps); i++ {
		if reps[i].QueueDepth() < reps[best].QueueDepth() {
			best = i
		}
	}
	return best
}

// NewRandom draws replicas from a seeded uniform stream; useful as a
// reproducible load-spreading baseline in experiments.
func NewRandom(seed int64) Router {
	return &random{rng: rand.New(rand.NewSource(seed))}
}

type random struct{ rng *rand.Rand }

func (r *random) Name() string { return "random" }

func (r *random) Pick(_ sched.Query, reps []*Replica) int {
	return r.rng.Intn(len(reps))
}

// NewFastest is the hardware-aware dispatcher for heterogeneous fleets:
// it scores every replica by the service latency its OWN latency table
// predicts for the query under its published cache column (seconds),
// scaled by the replica's queue depth plus one as a FIFO completion
// estimate, and picks the minimum (lowest index on ties). Replicas that
// can serve the query feasibly always outrank replicas that cannot —
// an infeasible replica's prediction is its best-effort fallback (under
// strict latency, its FASTEST SubNet), so latency alone would
// systematically attract queries to the one replica guaranteed to miss
// the constraint. On a mixed ZCU104/AlveoU50 fleet this steers
// compute-heavy SubNets to the wide datacenter array and small SubNets
// to the embedded board — the cluster-level reading of §5.4.2's
// observation that neither board dominates. Scoring is lock-free
// (Replica.peek and the scheduler's pure PeekAt).
func NewFastest() Router { return fastest{} }

type fastest struct{}

func (fastest) Name() string { return "fastest" }

func (fastest) Pick(q sched.Query, reps []*Replica) int {
	best, bestScore, bestFeasible := 0, 0.0, false
	var d sched.Decision
	for i, rep := range reps {
		// A replica that cannot schedule q at all (including an unknown
		// model) predicts +Inf.
		lat, feasible := math.Inf(1), false
		if _, _, ok := rep.peek(q, false, &d); ok {
			lat, feasible = d.PredictedLatency, d.Feasible
		}
		score := lat * float64(rep.QueueDepth()+1)
		better := score < bestScore
		if feasible != bestFeasible {
			better = feasible
		}
		if i == 0 || better {
			best, bestScore, bestFeasible = i, score, feasible
		}
	}
	return best
}

// NewAffinity steers each query to the replica whose cached SubGraph
// best covers the SubNet that replica would serve — SubGraph Stationary
// reuse (Appendix A.4's hit ratio) maximized at cluster scale. Scoring
// reads each replica's atomically published cache snapshot
// (Replica.AffinityScore), so dispatch never blocks on in-flight
// serves. Ties break toward the shallower queue, then the lower index,
// so affinity degrades to least-loaded when caches are
// indistinguishable.
func NewAffinity() Router { return affinity{} }

type affinity struct{}

func (affinity) Name() string { return "affinity" }

func (affinity) Pick(q sched.Query, reps []*Replica) int {
	best, bestScore := 0, -1.0
	for i, rep := range reps {
		score := rep.AffinityScore(q)
		switch {
		case score > bestScore:
			best, bestScore = i, score
		case score == bestScore && rep.QueueDepth() < reps[best].QueueDepth():
			best = i
		}
	}
	return best
}
