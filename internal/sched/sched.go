// Package sched implements SushiSched (§3.3, Algorithm 1): the software
// scheduler that makes SUSHI's two control decisions. Per query it picks
// the SubNet to serve under a STRICT_ACCURACY or STRICT_LATENCY policy
// using the SushiAbs latency table; every Q queries it picks the next
// SubGraph to cache as the candidate closest (Euclidean distance over the
// Fig. 6 vector encoding) to the running average of recently served
// SubNets.
package sched

import (
	"fmt"

	"sushi/internal/latencytable"
)

// Policy selects which constraint Algorithm 1 treats as hard.
type Policy int

const (
	// StrictAccuracy serves the minimum-latency SubNet whose accuracy
	// meets the query's accuracy constraint.
	StrictAccuracy Policy = iota
	// StrictLatency serves the maximum-accuracy SubNet whose (cache-state
	// dependent) latency meets the query's latency constraint.
	StrictLatency
	// MinEnergy serves the minimum-off-chip-energy SubNet meeting *both*
	// constraints. This is an extension beyond Algorithm 1 enabled by
	// SushiAbs's remark that the table abstracts "latency (and energy)"
	// of served SubNets (§7): battery-powered deployments prefer it.
	MinEnergy
)

// Valid reports whether p is one of the three policies above.
func (p Policy) Valid() bool { return p >= StrictAccuracy && p <= MinEnergy }

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case StrictAccuracy:
		return "STRICT_ACCURACY"
	case StrictLatency:
		return "STRICT_LATENCY"
	case MinEnergy:
		return "MIN_ENERGY"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Query is one inference request annotated with its (A_t, L_t) pair.
type Query struct {
	// ID is the sequence number.
	ID int
	// Model names the SuperNet family the query targets on a
	// multi-tenant deployment ("resnet50", "mobilenetv3", ...). Empty
	// resolves to the deployment's default model, so single-model
	// callers never set it. The serving layer normalizes the field to a
	// canonical model id at dispatch; the scheduler itself is per-model
	// and ignores it.
	Model string
	// Class labels the query's SLO class ("gold", "batch", ...) for
	// per-class accounting: it rides the query through dispatch and
	// into every outcome (drops included), where the serving
	// accumulators bucket latency/SLO/drop aggregates and a Jain
	// fairness index by it. Empty traffic is unclassed; the scheduler
	// and routers ignore the field entirely.
	Class string
	// MinAccuracy is A_t in top-1 percent.
	MinAccuracy float64
	// MaxLatency is L_t in seconds.
	MaxLatency float64
	// Policy, when non-nil, overrides the scheduler's hard-constraint
	// mode for this query only. Serving frameworks use it to honour a
	// per-request "policy" field without deploying one system per policy.
	Policy *Policy
}

// Debit returns a copy of q with its latency budget reduced by waited
// seconds, clamped at zero — the load-aware budget debit the serving
// engine applies before handing a queued query to the scheduler: time
// already spent waiting is no longer available for inference, so under
// load the scheduler is steered toward faster SubNets. Queries without
// a latency budget (MaxLatency <= 0) are unconstrained and unchanged.
func (q Query) Debit(waited float64) Query {
	if q.MaxLatency <= 0 || waited <= 0 {
		return q
	}
	b := q.MaxLatency - waited
	if b < 0 {
		b = 0
	}
	q.MaxLatency = b
	return q
}

// Decision is the scheduler's output for one query.
type Decision struct {
	// SubNet is the row index into the table's serving set.
	SubNet int
	// PredictedLatency is L[SubNet][cache column] in seconds.
	PredictedLatency float64
	// PredictedAccuracy is the SubNet's fixed accuracy.
	PredictedAccuracy float64
	// Feasible reports whether the hard constraint was satisfiable at
	// all; when false the scheduler served the best-effort extreme.
	Feasible bool
	// CacheUpdate is the new cache column to enact, or -1 to keep the
	// current state. Updates fire every Q-th query (Algorithm 1).
	CacheUpdate int
}

// Options configures a Scheduler.
type Options struct {
	// Policy is the hard-constraint mode.
	Policy Policy
	// Q is the cache-update period in queries (Appendix A.1 explores the
	// trade-off; the paper settles near 4-10).
	Q int
	// InitialColumn is the cache column assumed before the first update
	// ("the cache state is set to a random SubGraph initially").
	InitialColumn int
	// StateAware, when false, reproduces the "SUSHI w/o scheduler"
	// baseline: SubNet selection keeps consulting InitialColumn and no
	// cache updates are emitted.
	StateAware bool
	// UseIntersection replaces the running average with the pure
	// intersection (elementwise minimum over the window) when predicting
	// the next SubGraph. The paper argues averaging is strictly more
	// informative (§3.3, Fig. 6) — this switch exists to ablate that
	// design choice.
	UseIntersection bool
}

// winKey identifies one exactly-memoizable Q-periodic cache decision:
// the window ring packed as one byte per slot (row index + 1; 0 =
// empty slot) plus the cache budget. Identical ring layouts sum to
// bit-identical AvgNet vectors (same slot order, same floats), so the
// memoized nearest column is exactly what Algorithm 1 would pick.
type winKey struct {
	w0, w1 uint64
	budget int64
}

// winMemoCap bounds the window memo; a stream that keeps producing new
// ring layouts resets the map rather than growing it forever.
const winMemoCap = 1 << 15

// Scheduler executes Algorithm 1 over a latency table. It is not safe
// for concurrent use (queries are a stream).
type Scheduler struct {
	table *latencytable.Table
	opt   Options
	// cacheCol is the column the scheduler believes is cached.
	cacheCol int
	// cacheBudget caps Q-periodic cache updates to columns whose
	// SubGraph fits this many bytes (0 = uncapped) — the tenant's share
	// of a partitioned Persistent Buffer.
	cacheBudget int64
	// window holds the vector encodings of the last Q served SubNets;
	// avg is their running mean (AvgNet in Fig. 6), materialized lazily:
	// observe only pushes the ring and marks avgDirty, refreshAvg sums
	// the ring when the average is consumed.
	window   [][]float64
	next     int
	filled   int
	avg      []float64
	avgDirty bool
	served   int
	// winMemo caches the Q-periodic nearest-column decision by packed
	// ring and cache budget. The nearest column does not depend on the
	// current cache column, so SetColumn leaves the memo valid, and a
	// budget change selects different keys instead of clearing it. Only
	// Schedule and ScheduleBatch consult it.
	winMemo map[winKey]int
	// winKeyable reports that the ring fits the packed winKey (Q slots
	// of one byte each, row indices below 255).
	winKeyable bool
	winPack    [2]uint64
}

// New validates options and returns a scheduler.
func New(table *latencytable.Table, opt Options) (*Scheduler, error) {
	if table == nil || table.Rows() == 0 || table.Cols() == 0 {
		return nil, fmt.Errorf("sched: empty latency table")
	}
	if opt.Q <= 0 {
		return nil, fmt.Errorf("sched: non-positive cache period Q=%d", opt.Q)
	}
	if opt.InitialColumn < 0 || opt.InitialColumn >= table.Cols() {
		return nil, fmt.Errorf("sched: initial column %d outside [0, %d)", opt.InitialColumn, table.Cols())
	}
	if !opt.Policy.Valid() {
		return nil, fmt.Errorf("sched: unknown policy %v", opt.Policy)
	}
	return &Scheduler{
		table:      table,
		opt:        opt,
		cacheCol:   opt.InitialColumn,
		window:     make([][]float64, opt.Q),
		winKeyable: opt.Q <= 16 && table.Rows() < 255,
	}, nil
}

// CacheColumn returns the column the scheduler currently assumes cached.
func (s *Scheduler) CacheColumn() int { return s.cacheCol }

// SetColumn enacts an externally chosen cache column: the scheduler's
// cache belief moves to col so subsequent per-query decisions are made
// against it. This is the hook the serving layer's cache manager uses
// to re-cache outside Algorithm 1's Q-periodic updates; the caller owns
// enacting the matching accelerator state (accel.Simulator.SetCached)
// and accounting the switch cost. Like every other mutating method it
// must be serialized with Schedule.
func (s *Scheduler) SetColumn(col int) error {
	if col < 0 || col >= s.table.Cols() {
		return fmt.Errorf("sched: cache column %d outside [0, %d)", col, s.table.Cols())
	}
	s.cacheCol = col
	return nil
}

// SetCacheBudget caps the scheduler's Q-periodic cache updates to
// columns whose SubGraph fits maxBytes (0 removes the cap) — the hook
// the serving layer's shared-PB partitioner uses so Algorithm 1 never
// caches beyond the tenant's current share. Like every other mutating
// method it must be serialized with Schedule.
func (s *Scheduler) SetCacheBudget(maxBytes int64) {
	if maxBytes < 0 {
		maxBytes = 0
	}
	s.cacheBudget = maxBytes
}

// Served returns the number of scheduled queries so far.
func (s *Scheduler) Served() int { return s.served }

// policyFor resolves the effective policy for one query.
func (s *Scheduler) policyFor(q Query) (Policy, error) {
	if q.Policy == nil {
		return s.opt.Policy, nil
	}
	p := *q.Policy
	if !p.Valid() {
		return 0, fmt.Errorf("sched: unknown query policy %v", p)
	}
	return p, nil
}

// PeekAt evaluates the per-query decision against an explicit cache
// column. It reads only the scheduler's immutable configuration and
// latency table, so — unlike every other method — it IS safe to call
// concurrently with Schedule; cluster routers score replicas with it
// against an atomically published cache snapshot.
func (s *Scheduler) PeekAt(q Query, col int) (Decision, error) {
	pol, err := s.policyFor(q)
	if err != nil {
		return Decision{}, err
	}
	if col < 0 || col >= s.table.Cols() {
		return Decision{}, fmt.Errorf("sched: peek column %d outside [0, %d)", col, s.table.Cols())
	}
	return s.decide(q, pol, col, 1), nil
}

// ColPeek is one candidate column's answer from PeekCols: the
// PredictedLatency and Feasible that PeekAt reports for that column.
// The unexported fields are the walk's running state.
type ColPeek struct {
	Latency  float64
	Feasible bool
	// key is the kept row's policy key: its accuracy (STRICT_LATENCY)
	// or energy (MIN_ENERGY). During the walk Feasible means "a row is
	// kept", and under STRICT_ACCURACY Latency is the key.
	key float64
	// fast is MIN_ENERGY's strict-accuracy fallback, walked alongside:
	// the smallest latency among rows meeting the floor (fastOK: any).
	fast   float64
	fastOK bool
}

// PeekCols is PeekAt for many columns in one walk: out[c] receives the
// PredictedLatency and Feasible of PeekAt(*q, cols[c]), bit for bit. The
// policy is resolved once, then the rows of Lat (and Energy for
// MIN_ENERGY) are walked once, each row's cells compared against one
// running best per column under PeekAt's rules: strict improvement (the
// lowest row wins a tie), a row skipped only when acc < floor or
// latency > budget (so NaN constraints exclude nothing), and PeekAt's
// fallbacks — the most accurate row, the column's MinLatency, or the
// strict-accuracy answer. Like PeekAt it reads only immutable state.
// out must hold len(cols) entries.
func (s *Scheduler) PeekCols(q *Query, cols []int, out []ColPeek) error {
	pol, err := s.policyFor(*q)
	if err != nil {
		return err
	}
	t := s.table
	for _, j := range cols {
		if j < 0 || j >= t.Cols() {
			return fmt.Errorf("sched: peek column %d outside [0, %d)", j, t.Cols())
		}
	}
	out = out[:len(cols)]
	clear(out)
	minAcc, maxLat := q.MinAccuracy, q.MaxLatency
	switch pol {
	case StrictAccuracy:
		for i, row := range t.Lat {
			if t.SubNets[i].Accuracy < minAcc {
				continue
			}
			for c, j := range cols {
				if o, l := &out[c], row[j]; !o.Feasible || l < o.Latency {
					o.Latency, o.Feasible = l, true
				}
			}
		}
		for c, j := range cols {
			if !out[c].Feasible {
				out[c].Latency = t.Lat[t.MostAccurateRow()][j]
			}
		}
	case StrictLatency:
		for i, row := range t.Lat {
			a := t.SubNets[i].Accuracy
			for c, j := range cols {
				if o, l := &out[c], row[j]; !(l > maxLat) && (!o.Feasible || a > o.key) {
					o.Latency, o.key, o.Feasible = l, a, true
				}
			}
		}
		for c, j := range cols {
			if !out[c].Feasible {
				out[c].Latency = t.MinLatency(j)
			}
		}
	default: // MinEnergy
		for i, row := range t.Lat {
			if t.SubNets[i].Accuracy < minAcc {
				continue
			}
			erow := t.Energy[i]
			for c, j := range cols {
				o, l := &out[c], row[j]
				if !o.fastOK || l < o.fast {
					o.fast, o.fastOK = l, true
				}
				if e := erow[j]; !(l > maxLat) && (!o.Feasible || e < o.key) {
					o.Latency, o.key, o.Feasible = l, e, true
				}
			}
		}
		for c, j := range cols {
			switch o := &out[c]; {
			case o.Feasible:
			case o.fastOK:
				o.Latency = o.fast
			default:
				o.Latency = t.Lat[t.MostAccurateRow()][j]
			}
		}
	}
	return nil
}

// Schedule makes the two-part control decision for one query.
func (s *Scheduler) Schedule(q Query) (Decision, error) {
	pol, err := s.policyFor(q)
	if err != nil {
		return Decision{}, err
	}
	d := s.decide(q, pol, s.cacheCol, 1)
	s.consume(&d, 1)
	return d, nil
}

// batchQuery folds a micro-batch into the single query Algorithm 1
// evaluates: the TIGHTEST member constraints — the highest accuracy
// floor and the smallest positive latency budget — so the batched
// decision is safe for every member. All members must resolve to the
// same effective policy (the batch former groups by it).
func (s *Scheduler) batchQuery(qs []Query) (Query, Policy, error) {
	if len(qs) == 0 {
		return Query{}, 0, fmt.Errorf("sched: empty batch")
	}
	pol, err := s.policyFor(qs[0])
	if err != nil {
		return Query{}, 0, err
	}
	agg := Query{ID: qs[0].ID, MinAccuracy: qs[0].MinAccuracy, MaxLatency: qs[0].MaxLatency}
	for _, q := range qs[1:] {
		p, err := s.policyFor(q)
		if err != nil {
			return Query{}, 0, err
		}
		if p != pol {
			return Query{}, 0, fmt.Errorf("sched: mixed policies in batch (%v and %v)", pol, p)
		}
		if q.MinAccuracy > agg.MinAccuracy {
			agg.MinAccuracy = q.MinAccuracy
		}
		// A non-positive MaxLatency means unconstrained; the aggregate
		// takes the smallest positive budget.
		if q.MaxLatency > 0 && (agg.MaxLatency <= 0 || q.MaxLatency < agg.MaxLatency) {
			agg.MaxLatency = q.MaxLatency
		}
	}
	return agg, pol, nil
}

// ScheduleBatch makes the control decision for a micro-batch served as
// one accelerator pass. The batched SushiAbs lookup (weights once,
// per-item costs n times) is compared against the tightest member
// constraints (see batchQuery), so the scheduler picks the SubNet the
// whole batch can afford; PredictedLatency is the batch's total service
// latency. Every member counts as one served query toward the Q-periodic
// cache window, and — exactly as a sequence of Schedule calls would — a
// cache update fires for each Q boundary the batch crosses (the last one
// wins, enacted by the caller AFTER the batch). ScheduleBatch(qs[:1]) is
// bit-identical to Schedule(qs[0]).
func (s *Scheduler) ScheduleBatch(qs []Query) (Decision, error) {
	agg, pol, err := s.batchQuery(qs)
	if err != nil {
		return Decision{}, err
	}
	d := s.decide(agg, pol, s.cacheCol, len(qs))
	s.consume(&d, len(qs))
	return d, nil
}

// decide is the per-query half of Algorithm 1 for n same-SubNet queries
// served together against cache column col: the selected SubNet with
// its predicted (batched) latency and accuracy, no cache update. It
// reads only the immutable table, so the lock-free PeekAt shares it.
func (s *Scheduler) decide(q Query, pol Policy, col, n int) Decision {
	idx, feasible := s.selectSubNetBatch(q, pol, col, n)
	return Decision{
		SubNet:            idx,
		PredictedLatency:  s.table.LookupBatch(idx, col, n),
		PredictedAccuracy: s.table.SubNets[idx].Accuracy,
		Feasible:          feasible,
		CacheUpdate:       -1,
	}
}

// consume is the Q-periodic half: it counts n served queries of
// d.SubNet toward the window and, at each Q boundary crossed, moves the
// cache belief to the column nearest the window average, recording the
// move in d.CacheUpdate (the last boundary wins).
func (s *Scheduler) consume(d *Decision, n int) {
	for ; n > 0; n-- {
		s.observe(d.SubNet)
		s.served++
		if s.opt.StateAware && s.served%s.opt.Q == 0 {
			if col := s.nearestCol(); col != s.cacheCol {
				s.cacheCol = col
				d.CacheUpdate = col
			}
		}
	}
}

// selectSubNetBatch evaluates the policy against cache column col with
// the batched latency model for n same-SubNet queries; n = 1 is the
// plain Algorithm 1 (LookupBatch degrades to Lookup exactly). Every
// policy is one walk over the rows of column col: strict improvement,
// lowest row index among equals.
func (s *Scheduler) selectSubNetBatch(q Query, pol Policy, col, n int) (idx int, feasible bool) {
	switch pol {
	case MinEnergy:
		return s.selectMinEnergy(q, col, n)
	case StrictAccuracy:
		// argmin latency s.t. accuracy >= A_t; fall back to the most
		// accurate SubNet when the constraint is unsatisfiable.
		return s.table.FastestFeasibleBatch(q.MinAccuracy, col, n)
	default: // StrictLatency
		// argmax accuracy s.t. latency <= L_t; fall back to the fastest
		// SubNet when the constraint is unsatisfiable.
		return s.table.MostAccurateWithinBatch(q.MaxLatency, col, n)
	}
}

// selectMinEnergy is argmin energy s.t. accuracy >= A_t and latency <=
// L_t. When both cannot hold, accuracy remains the harder constraint:
// the choice falls back to the strict-accuracy one, reported infeasible.
func (s *Scheduler) selectMinEnergy(q Query, col, n int) (idx int, feasible bool) {
	best, bestE := -1, 0.0
	for i := 0; i < s.table.Rows(); i++ {
		if s.table.SubNets[i].Accuracy < q.MinAccuracy {
			continue
		}
		if s.table.LookupBatch(i, col, n) > q.MaxLatency {
			continue
		}
		if e := s.table.Energy[i][col]; best < 0 || e < bestE {
			best, bestE = i, e
		}
	}
	if best >= 0 {
		return best, true
	}
	idx, _ = s.table.FastestFeasibleBatch(q.MinAccuracy, col, n)
	return idx, false
}

// nearestCol makes the Q-periodic cache decision (Algorithm 1's
// argmin_j Dist(G_j, AvgNet)), memoized by the packed window ring: two
// rings holding the same rows in the same slots average to bit-identical
// vectors, so the memoized column is exactly what the distance scan
// would return. Misses — and schedulers whose ring doesn't fit the
// packed key — materialize the average and scan.
func (s *Scheduler) nearestCol() int {
	if !s.winKeyable {
		s.refreshAvg()
		return s.table.NearestGraphWithin(s.avg, s.cacheBudget)
	}
	k := winKey{w0: s.winPack[0], w1: s.winPack[1], budget: s.cacheBudget}
	if col, ok := s.winMemo[k]; ok {
		return col
	}
	s.refreshAvg()
	col := s.table.NearestGraphWithin(s.avg, s.cacheBudget)
	if s.winMemo == nil {
		s.winMemo = make(map[winKey]int)
	} else if len(s.winMemo) >= winMemoCap {
		clear(s.winMemo)
	}
	s.winMemo[k] = col
	return col
}

// observe folds the served SubNet's vector into the Q-window summary.
// Only the ring advances here; the running average is materialized by
// refreshAvg when something consumes it (the Q-periodic cache decision
// on a window-memo miss, or AvgNet).
func (s *Scheduler) observe(idx int) {
	// The precomputed row vector is shared and read-only; window slots
	// may alias it because the averaging only reads.
	s.window[s.next] = s.table.RowVector(idx)
	if s.winKeyable {
		w := &s.winPack[s.next>>3]
		sh := uint(s.next&7) * 8
		*w = *w&^(0xff<<sh) | uint64(idx+1)<<sh
	}
	s.next = (s.next + 1) % s.opt.Q
	if s.filled < s.opt.Q {
		s.filled++
	}
	s.avgDirty = true
}

// refreshAvg materializes AvgNet from the ring: sum in slot order,
// skipping empty slots, divide by filled (or the elementwise minimum
// for the intersection ablation). The summation order is fixed so that
// equal rings give bit-identical averages, which the window memo and
// the test oracle's eager average both rely on.
func (s *Scheduler) refreshAvg() {
	if !s.avgDirty || s.filled == 0 {
		return
	}
	s.avgDirty = false
	if s.avg == nil {
		for _, w := range s.window {
			if w != nil {
				s.avg = make([]float64, len(w))
				break
			}
		}
	}
	if s.opt.UseIntersection {
		// Elementwise minimum: exactly the intersection of nested-prefix
		// coverages.
		for i := range s.avg {
			s.avg[i] = 0
			first := true
			for _, w := range s.window {
				if w == nil {
					continue
				}
				if first || w[i] < s.avg[i] {
					s.avg[i] = w[i]
					first = false
				}
			}
		}
		return
	}
	for i := range s.avg {
		s.avg[i] = 0
	}
	for _, w := range s.window {
		if w == nil {
			continue
		}
		for i := range w {
			s.avg[i] += w[i]
		}
	}
	for i := range s.avg {
		s.avg[i] /= float64(s.filled)
	}
}
