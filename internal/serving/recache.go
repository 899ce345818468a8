package serving

import (
	"fmt"
	"slices"

	"sushi/internal/sched"
)

// RecachePolicy configures a replica's cache-management layer: the
// runtime mechanism that makes the Persistent-Buffer SubGraph cache
// mutable beyond Algorithm 1's Q-periodic updates. The layer tracks the
// replica's recently observed query mix and — when a different cached
// SubGraph would have served that window with fewer infeasible queries
// or lower total predicted latency — switches the cache column,
// charging the paper's cache-switch cost (DRAM fill of non-resident
// cells) either to virtual time (simq engine runs) or to the next query
// (live serving with Options.ChargeSwapLatency).
//
// All decisions are pure functions of the observed query sequence and
// the replica's latency table, so runs stay deterministic per seed.
// The zero value selects the defaults noted per field.
type RecachePolicy struct {
	// Window is how many recently served queries the layer replays when
	// scoring candidate cache columns (default 16). Advice is withheld
	// until the window has filled once.
	Window int
	// MinGain is the minimum relative predicted-latency improvement a
	// candidate column must offer over the current one to justify a
	// switch when feasibility is tied, as a fraction in (0, 1) — e.g.
	// 0.05 demands 5% lower total predicted latency. Zero or negative
	// selects the default 0.05 (to accept any improvement, use a tiny
	// positive value); values >= 1 and NaN are rejected by deployment
	// validation (no column can cut latency by 100%). A column that makes
	// strictly more window queries feasible wins regardless of MinGain.
	MinGain float64
	// Cooldown is the number of served queries between advisor
	// evaluations (default Window): the window is re-scored at most once
	// per Cooldown queries, which bounds both how often the fleet pays
	// fill traffic and the advisor's own replay cost on the serve path:
	// one O(Window x rows x columns) pass over the table.
	Cooldown int
}

// Validate rejects option values the layer would otherwise misread;
// zero values are valid (they select defaults).
func (p RecachePolicy) Validate() error {
	// Written so NaN fails too: it would let any latency gain switch.
	if !(p.MinGain < 1) {
		return fmt.Errorf("serving: recache MinGain %g outside (0, 1)", p.MinGain)
	}
	return nil
}

// withDefaults resolves zero-valued fields.
func (p RecachePolicy) withDefaults() RecachePolicy {
	if p.Window <= 0 {
		p.Window = 16
	}
	if p.MinGain <= 0 {
		p.MinGain = 0.05
	}
	if p.Cooldown <= 0 {
		p.Cooldown = p.Window
	}
	return p
}

// recacheState is one replica's cache-management bookkeeping. It is
// owned by the replica and mutated only under the replica lock.
type recacheState struct {
	pol RecachePolicy
	// recent is a ring of the last pol.Window served queries.
	recent       []sched.Query
	next, filled int
	// sinceEval counts observed queries since the advisor last scored
	// the window (whether or not it switched); initialized to Cooldown
	// so the first evaluation needs only a full window.
	sinceEval int
	// switches and switchSec total the enacted re-caches and their
	// modeled fill time in seconds.
	switches  int
	switchSec float64
	// cands, peeks and scores are advise's scratch: the candidate
	// columns, one window query's rating of each, and each candidate's
	// running window score.
	cands  []int
	peeks  []sched.ColPeek
	scores []windowScore
}

func newRecacheState(pol RecachePolicy) *recacheState {
	pol = pol.withDefaults()
	return &recacheState{
		pol:       pol,
		recent:    make([]sched.Query, pol.Window),
		sinceEval: pol.Cooldown,
	}
}

// observe folds one served query into the window.
func (rc *recacheState) observe(q sched.Query) {
	rc.recent[rc.next] = q
	rc.next = (rc.next + 1) % rc.pol.Window
	if rc.filled < rc.pol.Window {
		rc.filled++
	}
	rc.sinceEval++
}

// windowScore is a candidate column's replay outcome over the window:
// infeasible count first (fewer is better), then total predicted
// latency in seconds.
type windowScore struct {
	infeasible int
	latency    float64
}

// better reports whether s beats o lexicographically: feasibility
// first, then latency.
func (s windowScore) better(o windowScore) bool {
	if s.infeasible != o.infeasible {
		return s.infeasible < o.infeasible
	}
	return s.latency < o.latency
}

// advise replays the observed window against the cache columns of the
// system's latency table and returns the column to switch to, if any:
// the best-scoring column when it differs from the current one and
// either serves strictly more window queries feasibly or cuts total
// predicted latency by at least MinGain. The candidates are the current
// column, then every other column in ascending order whose SubGraph fits
// limit bytes — the tenant's share of a partitioned Persistent Buffer;
// a non-positive limit admits every column (the single-model
// behaviour). Each window query is rated against all candidates in one
// walk of the table (sched.Scheduler.PeekCols — pure, no scheduler state
// touched, and equal to PeekAt per column), and each candidate's score
// sums its queries in ring-slot order. It runs at most once per Cooldown
// observed queries — the caller resets sinceEval after every full
// evaluation — so a stable workload pays the replay once per Cooldown,
// not per query. The caller owns the replica lock.
func (rc *recacheState) advise(sys *System, limit int64) (int, bool) {
	if rc.filled < rc.pol.Window || rc.sinceEval < rc.pol.Cooldown {
		return 0, false
	}
	rc.sinceEval = 0
	schd, tab := sys.Scheduler(), sys.Table()
	if tab.Cols() < 2 || !sys.Simulator().Config().HasPB() {
		return 0, false
	}
	cur := schd.CacheColumn()
	cands := append(rc.cands[:0], cur)
	for j := 0; j < tab.Cols(); j++ {
		if j != cur && (limit <= 0 || tab.GraphBytes(j) <= limit) {
			cands = append(cands, j)
		}
	}
	rc.cands = cands
	if len(cands) < 2 {
		return 0, false
	}
	peeks := slices.Grow(rc.peeks[:0], len(cands))[:len(cands)]
	scores := slices.Grow(rc.scores[:0], len(cands))[:len(cands)]
	rc.peeks, rc.scores = peeks, scores
	clear(scores)
	for i := range rc.recent[:rc.filled] {
		if err := schd.PeekCols(&rc.recent[i], cands, peeks); err != nil {
			return 0, false
		}
		for c, p := range peeks {
			if !p.Feasible {
				scores[c].infeasible++
			}
			scores[c].latency += p.Latency
		}
	}
	best := 0
	for c := 1; c < len(cands); c++ {
		if scores[c].better(scores[best]) {
			best = c
		}
	}
	if best == 0 {
		return 0, false
	}
	if scores[best].infeasible == scores[0].infeasible &&
		scores[best].latency > scores[0].latency*(1-rc.pol.MinGain) {
		return 0, false
	}
	return cands[best], true
}

// maybeRecacheBatch folds a whole served micro-batch into the window and
// runs the advisor ONCE within limit bytes (0 = uncapped): a batch flush
// charges at most one re-cache, however many Cooldown boundaries its
// members span. It returns the modeled switch cost in seconds and
// whether a switch happened. The caller owns the replica lock.
func (rc *recacheState) maybeRecacheBatch(sys *System, qs []sched.Query, limit int64) (float64, bool) {
	for _, q := range qs {
		rc.observe(q)
	}
	col, ok := rc.advise(sys, limit)
	if !ok {
		return 0, false
	}
	fill, err := sys.Recache(col)
	if err != nil {
		// A system without a switchable cache (NoPB) simply never
		// switches; advice already filters this, so errors here are
		// defensive.
		return 0, false
	}
	rc.switches++
	rc.switchSec += fill
	return fill, true
}
