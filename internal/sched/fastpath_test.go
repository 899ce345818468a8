package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sushi/internal/latencytable"
	"sushi/internal/supernet"
)

// refSched is the test oracle for Scheduler: Algorithm 1 written the
// plain way — every per-query decision a scan over the table rows, the
// window average recomputed eagerly on every observe, and
// NearestGraphWithin run at every Q boundary with no memo. It shares
// only the policy resolution and batch folding (policyFor, batchQuery)
// with the production scheduler, which it reaches through pure.
type refSched struct {
	table       *latencytable.Table
	opt         Options
	pure        *Scheduler
	cacheCol    int
	cacheBudget int64
	window      [][]float64
	next        int
	filled      int
	served      int
}

func newRef(t testing.TB, tab *latencytable.Table, opt Options) *refSched {
	t.Helper()
	pure, err := New(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	return &refSched{
		table: tab, opt: opt, pure: pure,
		cacheCol: opt.InitialColumn,
		window:   make([][]float64, opt.Q),
	}
}

func (r *refSched) SetColumn(col int) error {
	if col < 0 || col >= r.table.Cols() {
		return fmt.Errorf("ref: cache column %d outside [0, %d)", col, r.table.Cols())
	}
	r.cacheCol = col
	return nil
}

func (r *refSched) SetCacheBudget(maxBytes int64) {
	if maxBytes < 0 {
		maxBytes = 0
	}
	r.cacheBudget = maxBytes
}

func (r *refSched) decision(idx int, feasible bool, col, n int) Decision {
	return Decision{
		SubNet:            idx,
		PredictedLatency:  r.table.LookupBatch(idx, col, n),
		PredictedAccuracy: r.table.SubNets[idx].Accuracy,
		Feasible:          feasible,
		CacheUpdate:       -1,
	}
}

func (r *refSched) PeekAt(q Query, col int) (Decision, error) {
	pol, err := r.pure.policyFor(q)
	if err != nil {
		return Decision{}, err
	}
	idx, feasible := r.selectScan(q, pol, col, 1)
	return r.decision(idx, feasible, col, 1), nil
}

func (r *refSched) Schedule(q Query) (Decision, error) {
	d, err := r.PeekAt(q, r.cacheCol)
	if err != nil {
		return Decision{}, err
	}
	r.consume(&d, 1)
	return d, nil
}

func (r *refSched) ScheduleBatch(qs []Query) (Decision, error) {
	agg, pol, err := r.pure.batchQuery(qs)
	if err != nil {
		return Decision{}, err
	}
	idx, feasible := r.selectScan(agg, pol, r.cacheCol, len(qs))
	d := r.decision(idx, feasible, r.cacheCol, len(qs))
	r.consume(&d, len(qs))
	return d, nil
}

// consume counts n served members of d.SubNet toward the window and
// makes the cache decision at each Q boundary crossed.
func (r *refSched) consume(d *Decision, n int) {
	for ; n > 0; n-- {
		r.window[r.next] = r.table.RowVector(d.SubNet)
		r.next = (r.next + 1) % r.opt.Q
		if r.filled < r.opt.Q {
			r.filled++
		}
		avg := r.average()
		r.served++
		if r.opt.StateAware && r.served%r.opt.Q == 0 {
			if col := r.table.NearestGraphWithin(avg, r.cacheBudget); col != r.cacheCol {
				r.cacheCol = col
				d.CacheUpdate = col
			}
		}
	}
}

// average is AvgNet over the filled window slots, summed in slot order
// (or their elementwise minimum for the intersection ablation).
func (r *refSched) average() []float64 {
	var avg []float64
	first := true
	for _, w := range r.window {
		if w == nil {
			continue
		}
		if avg == nil {
			avg = make([]float64, len(w))
		}
		for i := range w {
			switch {
			case !r.opt.UseIntersection:
				avg[i] += w[i]
			case first || w[i] < avg[i]:
				avg[i] = w[i]
			}
		}
		first = false
	}
	if !r.opt.UseIntersection {
		for i := range avg {
			avg[i] /= float64(r.filled)
		}
	}
	return avg
}

// selectScan is the O(rows) implementation of every policy. Tie-breaks:
// strict improvement, so the lowest row index wins among equals.
func (r *refSched) selectScan(q Query, pol Policy, col, n int) (idx int, feasible bool) {
	t := r.table
	argmaxAccuracy := func() int {
		best := 0
		for i := 1; i < t.Rows(); i++ {
			if t.SubNets[i].Accuracy > t.SubNets[best].Accuracy {
				best = i
			}
		}
		return best
	}
	// argmin latency s.t. accuracy >= A_t, else the most accurate row.
	strictAccuracy := func() (int, bool) {
		best, bestLat := -1, 0.0
		for i := 0; i < t.Rows(); i++ {
			if t.SubNets[i].Accuracy < q.MinAccuracy {
				continue
			}
			if lat := t.LookupBatch(i, col, n); best < 0 || lat < bestLat {
				best, bestLat = i, lat
			}
		}
		if best >= 0 {
			return best, true
		}
		return argmaxAccuracy(), false
	}
	switch pol {
	case MinEnergy:
		best, bestE := -1, 0.0
		for i := 0; i < t.Rows(); i++ {
			if t.SubNets[i].Accuracy < q.MinAccuracy || t.LookupBatch(i, col, n) > q.MaxLatency {
				continue
			}
			if e := t.Energy[i][col]; best < 0 || e < bestE {
				best, bestE = i, e
			}
		}
		if best >= 0 {
			return best, true
		}
		idx, _ = strictAccuracy()
		return idx, false
	case StrictAccuracy:
		return strictAccuracy()
	default: // StrictLatency
		best, bestAcc := -1, 0.0
		for i := 0; i < t.Rows(); i++ {
			if t.LookupBatch(i, col, n) > q.MaxLatency {
				continue
			}
			if acc := t.SubNets[i].Accuracy; best < 0 || acc > bestAcc {
				best, bestAcc = i, acc
			}
		}
		if best >= 0 {
			return best, true
		}
		best = 0
		for i := 1; i < t.Rows(); i++ {
			if t.LookupBatch(i, col, n) < t.LookupBatch(best, col, n) {
				best = i
			}
		}
		return best, false
	}
}

// queryGen draws the randomized constraint mix of the differential
// tests: tight on both axes, one axis only, NaN accuracy, infeasible
// latency, and a per-query policy override on a quarter of the queries.
type queryGen struct {
	rng                        *rand.Rand
	accLo, accHi, latLo, latHi float64
}

func newQueryGen(tab *latencytable.Table, seed int64) *queryGen {
	return &queryGen{
		rng:   rand.New(rand.NewSource(seed)),
		accLo: tab.SubNets[0].Accuracy,
		accHi: tab.SubNets[tab.Rows()-1].Accuracy,
		latLo: tab.Lookup(0, tab.Cols()-1),
		latHi: tab.Lookup(tab.Rows()-1, 0),
	}
}

var allPolicies = []Policy{StrictAccuracy, StrictLatency, MinEnergy}

func (g *queryGen) query(id int) Query {
	rng := g.rng
	q := Query{ID: id}
	switch rng.Intn(5) {
	case 0: // tight on both axes
		q.MinAccuracy = g.accLo + rng.Float64()*(g.accHi-g.accLo)
		q.MaxLatency = g.latLo + rng.Float64()*(g.latHi-g.latLo)
	case 1: // accuracy only
		q.MinAccuracy = g.accLo + rng.Float64()*(g.accHi-g.accLo)
		q.MaxLatency = math.Inf(1)
	case 2: // latency only
		q.MaxLatency = g.latLo + rng.Float64()*(g.latHi-g.latLo)
	case 3: // unconstrained / NaN accuracy
		q.MinAccuracy = math.NaN()
		q.MaxLatency = g.latHi * 2
	default: // infeasible latency
		q.MaxLatency = g.latLo * 0.5
		q.MinAccuracy = g.accHi
	}
	if rng.Intn(4) == 0 {
		p := allPolicies[rng.Intn(len(allPolicies))]
		q.Policy = &p
	}
	return q
}

// batch draws a 2-4 member micro-batch sharing one constraint draw.
func (g *queryGen) batch(id int) []Query {
	qs := make([]Query, 2+g.rng.Intn(3))
	base := g.query(id)
	for j := range qs {
		qs[j] = base
		qs[j].ID = id*10 + j
	}
	return qs
}

// TestFastPathMatchesSlowPath is the scheduler's differential test: the
// production scheduler (the table's column scans, window memo, lazy
// average) and the reference scheduler above are driven with an
// identical randomized operation stream (peeks, single and batched
// schedules, policy overrides, column and budget changes, NaN and
// infinite constraints) and must emit bit-identical Decisions and
// identical cache-column trajectories at every step.
func TestFastPathMatchesSlowPath(t *testing.T) {
	tab := buildTable(t)
	for _, pol := range allPolicies {
		for _, intersect := range []bool{false, true} {
			opt := Options{Policy: pol, Q: 4, StateAware: true, UseIntersection: intersect}
			fast, err := New(tab, opt)
			if err != nil {
				t.Fatal(err)
			}
			slow := newRef(t, tab, opt)
			draw := newQueryGen(tab, int64(pol)*100+7)
			rng := draw.rng
			for i := 0; i < 400; i++ {
				switch rng.Intn(10) {
				case 0:
					col := rng.Intn(tab.Cols())
					if err1, err2 := fast.SetColumn(col), slow.SetColumn(col); (err1 == nil) != (err2 == nil) {
						t.Fatalf("pol %v op %d: SetColumn divergence: %v vs %v", pol, i, err1, err2)
					}
				case 1:
					b := int64(rng.Intn(3)) * 1 << 20
					fast.SetCacheBudget(b)
					slow.SetCacheBudget(b)
				case 2, 3:
					q := draw.query(i)
					df, ef := fast.PeekAt(q, fast.CacheColumn())
					ds, es := slow.PeekAt(q, slow.cacheCol)
					if df != ds || (ef == nil) != (es == nil) {
						t.Fatalf("pol %v op %d: PeekAt divergence: %+v/%v vs %+v/%v", pol, i, df, ef, ds, es)
					}
				case 4, 5:
					qs := draw.batch(i)
					df, ef := fast.ScheduleBatch(qs)
					ds, es := slow.ScheduleBatch(qs)
					if df != ds || (ef == nil) != (es == nil) {
						t.Fatalf("pol %v op %d: ScheduleBatch divergence: %+v/%v vs %+v/%v", pol, i, df, ef, ds, es)
					}
				default:
					q := draw.query(i)
					df, ef := fast.Schedule(q)
					ds, es := slow.Schedule(q)
					if df != ds || (ef == nil) != (es == nil) {
						t.Fatalf("pol %v op %d: Schedule divergence: %+v/%v vs %+v/%v", pol, i, df, ef, ds, es)
					}
				}
				if fast.CacheColumn() != slow.cacheCol {
					t.Fatalf("pol %v op %d: cache column diverged: %d vs %d",
						pol, i, fast.CacheColumn(), slow.cacheCol)
				}
			}
			if got, want := fast.Served(), slow.served; got != want {
				t.Fatalf("pol %v: served count diverged: %d vs %d", pol, got, want)
			}
		}
	}
}

// TestPeekAtMatchesSlowPath pins the pure (lock-free, router-facing)
// PeekAt against the scan implementation across every column.
func TestPeekAtMatchesSlowPath(t *testing.T) {
	tab := buildTable(t)
	for _, pol := range allPolicies {
		opt := Options{Policy: pol, Q: 4, StateAware: true}
		fast, err := New(tab, opt)
		if err != nil {
			t.Fatal(err)
		}
		slow := newRef(t, tab, opt)
		rng := rand.New(rand.NewSource(99))
		accHi := tab.SubNets[tab.Rows()-1].Accuracy
		latHi := tab.Lookup(tab.Rows()-1, 0)
		for i := 0; i < 200; i++ {
			q := Query{
				ID:          i,
				MinAccuracy: rng.Float64() * accHi * 1.05,
				MaxLatency:  rng.Float64() * latHi * 1.2,
			}
			col := rng.Intn(tab.Cols())
			df, ef := fast.PeekAt(q, col)
			ds, es := slow.PeekAt(q, col)
			if df != ds || (ef == nil) != (es == nil) {
				t.Fatalf("pol %v col %d: PeekAt divergence: %+v/%v vs %+v/%v", pol, col, df, ef, ds, es)
			}
		}
	}
}

// TestPeekColsMatchesSlowPath pins PeekCols — the re-cache advisor's
// one-walk rating of many columns — against the reference PeekAt on
// every column it is given (random subsets in random order). Constraints
// are drawn from NaN, ±Inf, negative and zero values plus every row
// accuracy and every table cell, so the strict comparisons decide at the
// boundaries; a quarter of the queries override the policy, and some
// carry an invalid one, which must fail with PeekAt's error. A second
// table with three accuracy, three latency and two energy levels makes
// ties the rule.
func TestPeekColsMatchesSlowPath(t *testing.T) {
	tab := buildTable(t)
	rng := rand.New(rand.NewSource(29))
	subnets := make([]*supernet.SubNet, tab.Rows())
	lat, item, energy := make([][]float64, tab.Rows()), make([][]float64, tab.Rows()), make([][]float64, tab.Rows())
	for i := range lat {
		sn := *tab.SubNets[i]
		sn.Accuracy = float64(70 + rng.Intn(3))
		subnets[i] = &sn
		lat[i], item[i], energy[i] = make([]float64, tab.Cols()), make([]float64, tab.Cols()), make([]float64, tab.Cols())
		for j := range lat[i] {
			lat[i][j] = float64(1+rng.Intn(3)) * 1e-3
			energy[i][j] = float64(1 + rng.Intn(2))
		}
	}
	ties, err := latencytable.FromMatrices(subnets, tab.Graphs, lat, item, energy)
	if err != nil {
		t.Fatal(err)
	}
	invalid := Policy(7)
	for _, tc := range []struct {
		name string
		tab  *latencytable.Table
	}{{"mobilenetv3", tab}, {"ties", ties}} {
		name, tab := tc.name, tc.tab
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0}
		accs := append([]float64(nil), special...)
		for _, sn := range tab.SubNets {
			accs = append(accs, sn.Accuracy)
		}
		lats := append([]float64(nil), special...)
		for _, row := range tab.Lat {
			lats = append(lats, row...)
		}
		out := make([]ColPeek, tab.Cols())
		for _, pol := range allPolicies {
			opt := Options{Policy: pol, Q: 4, StateAware: true}
			fast, err := New(tab, opt)
			if err != nil {
				t.Fatal(err)
			}
			slow := newRef(t, tab, opt)
			for i := 0; i < 500; i++ {
				q := Query{ID: i, MinAccuracy: accs[rng.Intn(len(accs))], MaxLatency: lats[rng.Intn(len(lats))]}
				switch rng.Intn(8) {
				case 0, 1:
					p := allPolicies[rng.Intn(len(allPolicies))]
					q.Policy = &p
				case 2:
					q.Policy = &invalid
				}
				cols := rng.Perm(tab.Cols())[:1+rng.Intn(tab.Cols())]
				err := fast.PeekCols(&q, cols, out)
				for c, col := range cols {
					want, werr := slow.PeekAt(q, col)
					if werr != nil || err != nil {
						if werr == nil || err == nil || err.Error() != werr.Error() {
							t.Fatalf("%s pol %v query %+v: PeekCols error %v, PeekAt error %v", name, pol, q, err, werr)
						}
						continue
					}
					got := out[c]
					if math.Float64bits(got.Latency) != math.Float64bits(want.PredictedLatency) || got.Feasible != want.Feasible {
						t.Fatalf("%s pol %v query %+v col %d: PeekCols (%v, %v), PeekAt (%v, %v)",
							name, pol, q, col, got.Latency, got.Feasible, want.PredictedLatency, want.Feasible)
					}
				}
			}
			q := Query{}
			for _, col := range []int{-1, tab.Cols()} {
				_, werr := fast.PeekAt(q, col)
				if err := fast.PeekCols(&q, []int{0, col}, out); err == nil || werr == nil || err.Error() != werr.Error() {
					t.Errorf("%s pol %v: column %d: PeekCols error %v, PeekAt error %v", name, pol, col, err, werr)
				}
			}
		}
	}
}

// TestWindowMemoSurvivesRecache interleaves the serving layer's
// re-cache hooks (SetColumn, SetCacheBudget) with Schedule. The
// cache-column trajectory must equal the reference scheduler's, and a
// Q boundary whose ring layout and budget were seen before must answer
// from the window memo — the average is not recomputed (avgDirty stays
// set) — no matter how many SetColumn calls came in between: the
// nearest column does not depend on the current one.
func TestWindowMemoSurvivesRecache(t *testing.T) {
	tab := buildTable(t)
	opt := Options{Policy: StrictLatency, Q: 4, StateAware: true}
	fast, err := New(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	slow := newRef(t, tab, opt)
	rng := rand.New(rand.NewSource(11))
	latLo, latHi := tab.Lookup(0, tab.Cols()-1), tab.Lookup(tab.Rows()-1, 0)
	// Three budget classes keep the ring layouts few, so they repeat.
	classes := []float64{latLo * 1.1, (latLo + latHi) / 2, latHi * 1.1}
	seen := map[winKey]bool{}
	hits, hitsAfterSetColumn, setColumnSince := 0, 0, false
	for i := 0; i < 2000; i++ {
		switch rng.Intn(12) {
		case 0:
			col := rng.Intn(tab.Cols())
			if err := fast.SetColumn(col); err != nil {
				t.Fatal(err)
			}
			if err := slow.SetColumn(col); err != nil {
				t.Fatal(err)
			}
			setColumnSince = true
		case 1:
			b := int64(rng.Intn(3)) * 1 << 20
			fast.SetCacheBudget(b)
			slow.SetCacheBudget(b)
		default:
			q := Query{ID: i, MaxLatency: classes[rng.Intn(len(classes))]}
			df, err := fast.Schedule(q)
			if err != nil {
				t.Fatal(err)
			}
			ds, _ := slow.Schedule(q)
			if df != ds {
				t.Fatalf("op %d: Schedule divergence: %+v vs %+v", i, df, ds)
			}
			if fast.served%opt.Q != 0 {
				break
			}
			k := winKey{w0: fast.winPack[0], w1: fast.winPack[1], budget: fast.cacheBudget}
			if seen[k] {
				hits++
				if setColumnSince {
					hitsAfterSetColumn++
				}
				if !fast.avgDirty {
					t.Fatalf("op %d: repeated ring %x recomputed the window average", i, k.w0)
				}
			} else if fast.avgDirty {
				t.Fatalf("op %d: first-seen ring %x did not compute the window average", i, k.w0)
			}
			seen[k] = true
			setColumnSince = false
		}
		if fast.CacheColumn() != slow.cacheCol {
			t.Fatalf("op %d: cache column diverged: %d vs %d", i, fast.CacheColumn(), slow.cacheCol)
		}
	}
	if hits == 0 || hitsAfterSetColumn == 0 {
		t.Fatalf("stream never repeated a ring (hits %d, after SetColumn %d)", hits, hitsAfterSetColumn)
	}
	if len(fast.winMemo) != len(seen) {
		t.Fatalf("window memo holds %d entries, want one per distinct (ring, budget) = %d", len(fast.winMemo), len(seen))
	}
}

// TestScheduleAllocs pins Schedule's steady state at zero allocations:
// once every ring layout of the stream is in the window memo, a call is
// a walk over one table column, a ring push and at most a map read.
func TestScheduleAllocs(t *testing.T) {
	tab := buildTable(t)
	s, err := New(tab, Options{Policy: StrictLatency, Q: 4, StateAware: true})
	if err != nil {
		t.Fatal(err)
	}
	latLo, latHi := tab.Lookup(0, tab.Cols()-1), tab.Lookup(tab.Rows()-1, 0)
	rng := rand.New(rand.NewSource(3))
	next := func() Query {
		// Budgets never repeat, but they fall in three bands that each
		// select one row, so the stream has at most 3^Q ring layouts.
		band := float64(rng.Intn(3))
		return Query{MaxLatency: latLo + (band+rng.Float64()*1e-3)*(latHi-latLo)/2}
	}
	schedule := func(n int) {
		for ; n > 0; n-- {
			if _, err := s.Schedule(next()); err != nil {
				t.Fatal(err)
			}
		}
	}
	schedule(20000)
	// One run of 5000 calls: AllocsPerRun rounds down per run, so this
	// counts every allocation instead of averaging rare ones away.
	if allocs := testing.AllocsPerRun(1, func() { schedule(5000) }); allocs != 0 {
		t.Errorf("5000 steady-state Schedule calls allocate %.0f times; want 0", allocs)
	}
}

var benchSink Decision

// BenchmarkSchedule times Scheduler.Schedule on the mobilenetv3 table
// (Q=4, strict latency) over three constraint mixes: budgets that never
// repeat, and 36 or 3 repeating classes.
func BenchmarkSchedule(b *testing.B) {
	tab := buildTable(b)
	latLo := tab.Lookup(0, tab.Cols()-1)
	latHi := tab.Lookup(tab.Rows()-1, 0)
	for _, mix := range []struct {
		name    string
		classes int
	}{{"continuous", 0}, {"classes36", 36}, {"classes3", 3}} {
		b.Run(mix.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			qs := make([]Query, 1<<16)
			for i := range qs {
				u := rng.Float64()
				if mix.classes > 0 {
					u = float64(rng.Intn(mix.classes)) / float64(mix.classes)
				}
				qs[i] = Query{ID: i, MaxLatency: latLo + u*(latHi-latLo)*1.2}
			}
			s, err := New(tab, Options{Policy: StrictLatency, Q: 4, StateAware: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := s.Schedule(qs[i&(len(qs)-1)])
				if err != nil {
					b.Fatal(err)
				}
				benchSink = d
			}
		})
	}
}
