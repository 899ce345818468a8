package serving

import (
	"testing"

	"sushi/internal/accel"
	"sushi/internal/latencytable"
	"sushi/internal/sched"
	"sushi/internal/supernet"
	"sushi/internal/workload"
)

// newFleet boots r strict-latency replicas over one shared table. All
// replicas start at the default column; routed serving drifts their
// cache states apart as the run progresses.
func newFleet(t *testing.T, r int) []*Replica {
	t.Helper()
	s, fr := fixtures(t, supernet.MobileNetV3)
	opt := Options{
		Accel:      accel.ZCU104(),
		Policy:     sched.StrictLatency,
		Q:          4,
		Mode:       Full,
		Candidates: 12,
		Seed:       1,
	}
	table, _, err := BuildTable(s, fr, opt)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*Replica, r)
	for i := range reps {
		o := opt
		o.Table = table
		sys, err := New(s, fr, o)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = soloReplica(t, i, sys)
	}
	return reps
}

// scratchScore is what the routers score a replica by, recomputed from
// scratch: it reads the replica's LIVE scheduler column and cached
// SubGraph under the replica lock (not the published snapshot), picks
// the strict-latency SubNet with a plain row scan, and computes the
// overlap directly.
type scratchScore struct {
	row      int
	latency  float64
	feasible bool
	overlap  float64
	depth    int
}

func scoreFromScratch(rep *Replica, q sched.Query) scratchScore {
	sc := scratchScore{depth: rep.QueueDepth()}
	rep.Inspect(func(s *System) {
		tab, col := s.Table(), s.Scheduler().CacheColumn()
		// argmax accuracy s.t. latency <= L_t, else argmin latency;
		// strict improvement, so the lowest row wins among equals.
		best, fastest := -1, 0
		for i := 0; i < tab.Rows(); i++ {
			if tab.Lookup(i, col) < tab.Lookup(fastest, col) {
				fastest = i
			}
			if tab.Lookup(i, col) > q.MaxLatency {
				continue
			}
			if best < 0 || tab.SubNets[i].Accuracy > tab.SubNets[best].Accuracy {
				best = i
			}
		}
		sc.row, sc.feasible = best, best >= 0
		if best < 0 {
			sc.row = fastest
		}
		sc.latency = tab.Lookup(sc.row, col)
		sc.overlap = supernet.Overlap(tab.SubNets[sc.row].Graph, s.Simulator().Cached())
	})
	return sc
}

// pickFromScratch applies the fastest (r == 0) or affinity (r == 1)
// router's rule to from-scratch scores.
func pickFromScratch(r int, scores []scratchScore) int {
	best := 0
	for i, sc := range scores {
		b := scores[best]
		switch r {
		case 0: // feasible first, then latency x (depth+1), lowest index
			if sc.feasible != b.feasible {
				if sc.feasible {
					best = i
				}
			} else if sc.latency*float64(sc.depth+1) < b.latency*float64(b.depth+1) {
				best = i
			}
		default: // highest overlap, then shallower queue, lowest index
			if sc.overlap > b.overlap || (sc.overlap == b.overlap && sc.depth < b.depth) {
				best = i
			}
		}
	}
	return best
}

// TestRouterFastPathMatchesSlowPath is the routers' differential test:
// the fastest and affinity routers score from a per-replica snapshot
// published after each cache change (with per-snapshot cached overlap
// arrays); the test recomputes every score from the replicas' live
// state. Over one query stream — with every pick served virtually, so
// cache states drift and snapshots republish — the pick sequences must
// be identical, and each served outcome must be the SubNet, feasibility
// and hit ratio the from-scratch score predicted.
func TestRouterFastPathMatchesSlowPath(t *testing.T) {
	const replicas = 3
	fleet := newFleet(t, replicas)
	var sys *System
	fleet[0].Inspect(func(s *System) { sys = s })
	qs, err := workload.Uniform(300, accRange(sys), latRange(sys), 23)
	if err != nil {
		t.Fatal(err)
	}
	routers := []Router{NewFastest(), NewAffinity()}
	scores := make([]scratchScore, replicas)
	swaps := 0
	for i, q := range qs {
		q.ID = i
		for j, rep := range fleet {
			scores[j] = scoreFromScratch(rep, q)
		}
		r := i % len(routers)
		got, want := routers[r].Pick(q, fleet), pickFromScratch(r, scores)
		if got != want {
			t.Fatalf("query %d: %s picked replica %d, from-scratch scoring picks %d (%+v)",
				i, routers[r].Name(), got, want, scores)
		}
		out, err := fleet[got].ServeVirtual(q, q, false)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if sc := scores[got]; out.Row != sc.row || out.Feasible != sc.feasible || out.HitRatio != sc.overlap {
			t.Fatalf("query %d: served %+v, from-scratch score %+v", i, out, sc)
		}
		if out.CacheSwapped {
			swaps++
		}
	}
	if swaps < replicas {
		t.Fatalf("only %d cache swaps: the stream never made the snapshots republish", swaps)
	}
}

// TestAffinityScoreMatchesSlowPath pins the affinity router's cached
// (row -> score) snapshot table against the direct overlap computation
// on every replica, after serving has moved the cache states apart.
func TestAffinityScoreMatchesSlowPath(t *testing.T) {
	fleet := newFleet(t, 3)
	var sys *System
	fleet[0].Inspect(func(s *System) { sys = s })
	qs, err := workload.Uniform(50, accRange(sys), latRange(sys), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		q.ID = i
		for r, rep := range fleet {
			if got, want := rep.AffinityScore(q), scoreFromScratch(rep, q).overlap; got != want {
				t.Fatalf("query %d replica %d: AffinityScore %v, direct overlap %v", i, r, got, want)
			}
		}
		if _, err := fleet[i%len(fleet)].ServeVirtual(q, q, false); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBuildMemoAdmitsPastCap: once the build memo has held buildCacheCap
// distinct builds, a new key is still memoized, so building it again
// returns the same table rather than a fresh derivation.
func TestBuildMemoAdmitsPastCap(t *testing.T) {
	s, fr := fixtures(t, supernet.MobileNetV3)
	fr = fr[:2] // a frontier no other test builds: its keys are this test's
	build := func(seed int64) *latencytable.Table {
		tab, _, err := BuildTable(s, fr, Options{Accel: accel.ZCU104(), Mode: Full, Candidates: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	for seed := int64(0); seed <= buildCacheCap; seed++ {
		build(seed)
	}
	const past = buildCacheCap + 1
	if a, b := build(past), build(past); a != b {
		t.Errorf("a key built after the memo's cap was rebuilt on repeat: %p, then %p", a, b)
	}
}
