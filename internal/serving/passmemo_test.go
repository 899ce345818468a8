package serving

import (
	"math/rand"
	"testing"

	"sushi/internal/accel"
	"sushi/internal/latencytable"
	"sushi/internal/sched"
	"sushi/internal/supernet"
)

// memoOracle is the memo-free reading of one System: a lockstep scheduler
// for the decisions, and for every pass a FRESH simulator holding
// Graphs[col] — nothing is remembered between passes, fills and
// footprints are re-derived from the cell lists.
type memoOracle struct {
	t      *testing.T
	table  *latencytable.Table
	cfg    accel.Config
	schd   *sched.Scheduler
	pb     bool
	charge bool
	// col is the column the Persistent Buffer holds; pending the fill
	// seconds owed by the next query (ChargeSwapLatency).
	col       int
	pending   float64
	swaps     int
	swapBytes int64
}

func newMemoOracle(t *testing.T, sys *System) *memoOracle {
	t.Helper()
	col := sys.Scheduler().CacheColumn()
	schd, err := sched.New(sys.Table(), sched.Options{
		Policy:          sys.opt.Policy,
		Q:               sys.opt.Q,
		InitialColumn:   col,
		StateAware:      sys.mode == Full,
		UseIntersection: sys.opt.UseIntersection,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := &memoOracle{
		t: t, table: sys.Table(), cfg: sys.Simulator().Config(), schd: schd,
		pb: sys.mode != NoPB, charge: sys.opt.ChargeSwapLatency, col: col,
	}
	if o.pb {
		// The boot install fills the cold buffer with the whole column.
		o.swaps, o.swapBytes = 1, o.table.Graphs[col].Bytes()
	}
	return o
}

// swap moves the buffer to col and returns the fill time in seconds.
func (o *memoOracle) swap(col int) float64 {
	g := o.table.Graphs[col]
	fill := g.Bytes() - g.IntersectBytes(o.table.Graphs[o.col])
	o.swaps++
	o.swapBytes += fill
	o.col = col
	return float64(fill) / o.cfg.OffChipBW
}

// recache mirrors System.Recache.
func (o *memoOracle) recache(col int) float64 {
	sec := o.swap(col)
	if err := o.schd.SetColumn(col); err != nil {
		o.t.Fatal(err)
	}
	return sec
}

// serve mirrors System.ServeBatchInto (a batch of one being Serve).
func (o *memoOracle) serve(qs []sched.Query) []Served {
	o.t.Helper()
	d, err := o.schd.ScheduleBatch(qs)
	if err != nil {
		o.t.Fatal(err)
	}
	sim, err := accel.NewSimulator(o.cfg)
	if err != nil {
		o.t.Fatal(err)
	}
	sn := o.table.SubNets[d.SubNet]
	var hitRatio float64
	if o.pb {
		if err := sim.SetCached(o.table.Graphs[o.col]); err != nil {
			o.t.Fatal(err)
		}
		hitRatio = supernet.Overlap(sn.Graph, o.table.Graphs[o.col])
	}
	var rep accel.Report
	if err := sim.ServeBatchInto(&rep, sn, len(qs)); err != nil {
		o.t.Fatal(err)
	}
	lat := rep.Total()
	if o.charge {
		lat += o.pending
		o.pending = 0
	}
	out := make([]Served, len(qs))
	for i, q := range qs {
		out[i] = Served{
			Query: q, SubNet: sn.Name, Row: d.SubNet, Latency: lat, Accuracy: sn.Accuracy,
			Feasible: d.Feasible, LatencyMet: lat <= q.MaxLatency, AccuracyMet: sn.Accuracy >= q.MinAccuracy,
			HitRatio: hitRatio,
		}
		if len(qs) > 1 {
			out[i].Batch = len(qs)
		}
	}
	out[0].HitBytes, out[0].OffChipEnergyJ = rep.HitBytes, rep.OffChipEnergyJ
	if d.CacheUpdate >= 0 {
		out[len(out)-1].CacheSwapped = true
		if sec := o.swap(d.CacheUpdate); o.charge {
			o.pending += sec
		}
	}
	return out
}

// check holds the system to the oracle after an op: the simulator holds
// exactly Graphs[cachedCol] (nothing on NoPB), which is the oracle's
// column, and has booked the oracle's swaps.
func (o *memoOracle) check(op int, sys *System) {
	o.t.Helper()
	want := o.table.Graphs[o.col]
	if !o.pb {
		want = nil
	}
	if got := sys.Simulator().Cached(); got != want || sys.cachedCol != o.col {
		o.t.Fatalf("op %d: simulator holds %p with cachedCol %d, oracle column %d holds %p", op, got, sys.cachedCol, o.col, want)
	}
	if n, b := sys.Simulator().Swaps(); n != o.swaps || b != o.swapBytes {
		o.t.Fatalf("op %d: swaps = (%d, %d B), oracle (%d, %d B)", op, n, b, o.swaps, o.swapBytes)
	}
}

func sameServed(t *testing.T, op int, got, want []Served) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("op %d: %d outcomes, oracle %d", op, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("op %d member %d:\n got %+v\nwant %+v", op, i, got[i], want[i])
		}
	}
}

// randomPolicy draws a per-query policy override, or none.
func randomPolicy(rng *rand.Rand) *sched.Policy {
	k := rng.Intn(5)
	if k < 2 {
		return nil
	}
	pol := []sched.Policy{sched.StrictAccuracy, sched.StrictLatency, sched.MinEnergy}[k-2]
	return &pol
}

// randomQueries draws n queries with continuous budgets over the table's
// range, all under one policy override (batches never mix effective
// policies; nil keeps the system's).
func randomQueries(rng *rand.Rand, sys *System, id, n int, model string, pol *sched.Policy) []sched.Query {
	lat, acc := latRange(sys), accRange(sys)
	qs := make([]sched.Query, n)
	for i := range qs {
		qs[i] = sched.Query{
			ID: id + i, Model: model, Policy: pol,
			MinAccuracy: acc.Lo + rng.Float64()*(acc.Hi-acc.Lo),
			MaxLatency:  lat.Lo + rng.Float64()*(lat.Hi-lat.Lo),
		}
	}
	return qs
}

// TestPassMemoMatchesSimulator drives seeded random op streams through
// column-keyed systems and holds every outcome, bit for bit, to the
// memo-free oracle.
func TestPassMemoMatchesSimulator(t *testing.T) {
	const ops = 2000
	for _, mode := range []Mode{Full, NoPB} {
		t.Run(mode.String(), func(t *testing.T) {
			s, fr := fixtures(t, supernet.MobileNetV3)
			sys, err := New(s, fr, Options{
				Accel: accel.ZCU104(), Policy: sched.StrictLatency, Q: 4, Mode: mode,
				Candidates: 12, Seed: 1, ChargeSwapLatency: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			o := newMemoOracle(t, sys)
			rng := rand.New(rand.NewSource(18))
			for op := 0; op < ops; op++ {
				switch k := rng.Intn(10); {
				case k == 0 && mode == Full:
					col := rng.Intn(sys.Table().Cols())
					got, err := sys.Recache(col)
					if err != nil {
						t.Fatal(err)
					}
					if want := o.recache(col); got != want {
						t.Fatalf("op %d: Recache(%d) = %g s, oracle %g s", op, col, got, want)
					}
				default:
					n := 1
					if k >= 7 {
						n = 2 + rng.Intn(3)
					}
					qs := randomQueries(rng, sys, op*4, n, "", randomPolicy(rng))
					got := make([]Served, len(qs))
					if err := sys.ServeBatchInto(qs, got); err != nil {
						t.Fatal(err)
					}
					sameServed(t, op, got, o.serve(qs))
				}
				o.check(op, sys)
			}
		})
	}
	t.Run("partitioned replica", func(t *testing.T) {
		rep := newTenantReplica(t, &PartitionPolicy{Mode: PartitionTraffic, Window: 16})
		oracles := make([]*memoOracle, len(rep.tenants))
		for i, tn := range rep.tenants {
			oracles[i] = newMemoOracle(t, tn.sys)
			oracles[i].schd.SetCacheBudget(tn.shareBytes)
		}
		rng := rand.New(rand.NewSource(18))
		rebalanced := 0
		for op := 0; op < ops; op++ {
			// The hot tenant flips every 250 ops, so shares keep moving.
			i := (op / 250) % 2
			if rng.Intn(5) == 0 {
				i = 1 - i
			}
			tn, o := rep.tenants[i], oracles[i]
			// returned is the switch cost the op's serve call reported (a
			// bare Recache op serves nothing and reports none).
			var returned float64
			switch k := rng.Intn(20); {
			case k == 0:
				col := rng.Intn(tn.sys.Table().Cols())
				if tn.sys.Table().Graphs[col].Bytes() > tn.shareBytes {
					continue
				}
				got, err := tn.sys.Recache(col)
				if err != nil {
					t.Fatal(err)
				}
				if want := o.recache(col); got != want {
					t.Fatalf("op %d: Recache(%d) = %g s, oracle %g s", op, col, got, want)
				}
			default:
				n := 1
				if k >= 14 {
					n = 2 + rng.Intn(3)
				}
				qs := randomQueries(rng, tn.sys, op*4, n, tn.model, randomPolicy(rng))
				degrade := k == 1
				if degrade {
					budget := o.table.MinLatency(o.schd.CacheColumn())
					for j := range qs {
						qs[j].MinAccuracy, qs[j].MaxLatency, qs[j].Policy = 0, budget, &strictLatencyDegrade
					}
				}
				got := make([]Served, len(qs))
				var err error
				// Copies: the call normalizes and rewrites its slices in place.
				returned, err = rep.ServeBatchVirtualInto(append([]sched.Query(nil), qs...), append([]sched.Query(nil), qs...), degrade, got)
				if err != nil {
					t.Fatal(err)
				}
				sameServed(t, op, got, o.serve(qs))
			}
			// Follow the partitioner: a tenant whose share moved may have
			// been re-cached; the oracle takes the chosen column from the
			// replica and re-derives the fill and its cost.
			var cost float64
			for j, u := range rep.tenants {
				oracles[j].schd.SetCacheBudget(u.shareBytes)
				if col := u.sys.Scheduler().CacheColumn(); col != oracles[j].col {
					cost += oracles[j].recache(col)
					rebalanced++
				}
				oracles[j].check(op, u.sys)
			}
			if returned != cost {
				t.Fatalf("op %d: returned switch cost %g s, oracle %g s", op, returned, cost)
			}
		}
		if rebalanced == 0 {
			t.Error("the stream never moved a share: partition rebalances went untested")
		}
	})
}

// TestPassMemoSurvivesCacheUpdate: a stream alternating between two
// columns stops running the simulator once both are warm — every cache
// update moves the memo's key, none drops an entry.
func TestPassMemoSurvivesCacheUpdate(t *testing.T) {
	s, fr := fixtures(t, supernet.MobileNetV3)
	// Q beyond the stream: only Recache moves the cache, so both rounds
	// visit the same (column, row, n) set.
	sys, err := New(s, fr, Options{
		Accel: accel.ZCU104(), Policy: sched.StrictLatency, Q: 1000, Mode: Full, Candidates: 12, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := randomQueries(rand.New(rand.NewSource(18)), sys, 0, 60, "", nil)
	round := func() {
		for i := 0; i+3 <= len(qs); i += 3 {
			if _, err := sys.Recache(2 + 3*(i/3%2)); err != nil {
				t.Fatal(err)
			}
			for _, q := range qs[i : i+3] {
				if _, err := sys.Serve(q); err != nil {
					t.Fatal(err)
				}
			}
			if err := sys.ServeBatchInto(qs[i:i+3], make([]Served, 3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	round()
	warm := sys.passMisses
	if warm == 0 {
		t.Fatal("no simulator pass ran while warming")
	}
	round()
	if got := sys.passMisses - warm; got != 0 {
		t.Errorf("%d simulator passes on a warm two-column stream, want 0", got)
	}
}

// BenchmarkSystemServe is the closed-loop serve path on mobilenetv3 with
// Q=4 and never-repeating continuous budgets, so the cache moves every
// few queries: ns/op, allocs/op (0 once warm) and how many simulator
// passes a query still costs. Run with -cpu 1.
func BenchmarkSystemServe(b *testing.B) {
	s := supernet.NewOFAMobileNetV3()
	fr, err := s.Frontier()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := New(s, fr, Options{
		Accel: accel.ZCU104(), Policy: sched.StrictLatency, Q: 4, Mode: Full, Candidates: 12, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	qs := randomQueries(rand.New(rand.NewSource(18)), sys, 0, 4096, "", nil)
	for _, q := range qs {
		if _, err := sys.Serve(q); err != nil {
			b.Fatal(err)
		}
	}
	misses, swaps := sys.passMisses, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sys.Serve(qs[i%len(qs)])
		if err != nil {
			b.Fatal(err)
		}
		if r.CacheSwapped {
			swaps++
		}
	}
	b.ReportMetric(float64(sys.passMisses-misses)/float64(b.N), "sim_passes/op")
	b.ReportMetric(float64(swaps)/float64(b.N), "swaps/op")
}
