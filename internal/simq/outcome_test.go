package simq

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/workload"
)

// TestOutcomeLayout pins the two properties Result.Outcomes' cost rests
// on: the record stays within 40 bytes, and it holds no pointer of any
// kind, so the slice is one allocation the collector never scans. A
// field added as a string, or a service number, a query ID, an instant
// or a model index the record can derive stored per record instead of
// in the Result's tables and columns, fails here, not in a heap
// profile. (64 bytes held the instants, 48 the model and policy bytes.)
func TestOutcomeLayout(t *testing.T) {
	size := unsafe.Sizeof(Outcome{})
	if size > 40 {
		t.Errorf("Outcome is %d bytes; the record's budget is 40", size)
	}
	t.Logf("Outcome is %d bytes", size)
	typ := reflect.TypeOf(Outcome{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch k := f.Type.Kind(); k {
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float32, reflect.Float64:
		default:
			t.Errorf("Outcome.%s is a %v: the record must stay flat and pointer-free (intern strings in the Result's tables)", f.Name, k)
		}
	}
}

// twoTenantEngine is a hand-made engine skeleton, enough for the
// interner and Result.Timed: two co-hosted models with their own
// frontiers, no replicas behind them.
func twoTenantEngine() *Engine {
	return &Engine{
		models:   []string{"resnet50", "mobilenetv3"},
		modelIdx: map[string]uint16{"resnet50": 0, "mobilenetv3": 1},
		subnets:  [][]string{{"r0", "r1", "r2"}, {"m0", "m1"}},
		classes:  []classPair{{model: 0}, {model: 1}},
	}
}

// TestOutcomeRoundTrip sends hand-made queue entries and service
// outcomes through the functions the runner records with —
// interner.admit as the query arrives, serviceIndex.intern and
// Result.fill when its fate is known — and reads them back through
// Result.Timed, field for field. The first rows number their queries by
// arrival index and set no accuracy floor, so the ID and floor columns
// are allocated mid-run (the floor's by a -0 floor); every later
// index-valued ID and +0 floor must still come back as it went in. The
// rows with hand-picked instants are ones the record cannot derive bit
// for bit, so their arrival and start come back from Result.aside. The
// combination rows cross every policy override with degraded or not,
// both models, classed or unclassed, and served or dropped: the model
// rides in the class index and the policy in the flags.
func TestOutcomeRoundTrip(t *testing.T) {
	pol := func(p sched.Policy) *sched.Policy { return &p }
	type row struct {
		name string
		q    sched.Query
		// served is the service outcome (nil = dropped); its Query is
		// filled from the admitted query unless rewrite says otherwise.
		served *serving.Served
		// rewrite is what the replica did to the echo before serving it:
		// load-aware debiting or the degrade override.
		rewrite  func(q *sched.Query)
		degraded bool
		why      Reason
		n        int
		// wantModel is the canonical model id the echo must carry.
		wantModel string
		// at is the (arrival, start) pair, nil for (i, i+0.25); a pinned
		// pair must take the exception path.
		at *[2]float64
	}
	negZero := math.Copysign(0, -1)
	rows := []row{
		{name: "index id, no floor, before either column",
			q:      sched.Query{ID: 0, MaxLatency: 9e-3},
			served: &serving.Served{SubNet: "r0", Latency: 1e-3, Feasible: true},
			n:      1, wantModel: "resnet50"},
		{name: "index id, -0 floor allocates the floor column",
			q:   sched.Query{ID: 1, MinAccuracy: negZero},
			why: ReasonDeadline, wantModel: "resnet50"},
		{name: "negative id allocates the ID column, default model, solo",
			q:      sched.Query{ID: -7, MinAccuracy: 71.5, MaxLatency: 9e-3},
			served: &serving.Served{SubNet: "r2", Row: 2, Latency: 4e-3, Accuracy: 78.25, Feasible: true, AccuracyMet: true, HitRatio: 0.75, HitBytes: 1 << 33, OffChipEnergyJ: 2.5e-4},
			n:      1, wantModel: "resnet50"},
		{name: "id above 2^31, named model, batched",
			q:      sched.Query{ID: 1<<40 + 3, Model: "mobilenetv3", Class: "gold", MaxLatency: 5e-3},
			served: &serving.Served{SubNet: "m1", Row: 1, Latency: 6e-3, Accuracy: 75, LatencyMet: true, CacheSwapped: true, Recached: true, Batch: 4, HitRatio: 1, HitBytes: 1 << 20, OffChipEnergyJ: 1e-4},
			n:      4, wantModel: "mobilenetv3"},
		// These two revisit the two above: equal service values share the
		// negative-id row's table entry, and a non-first member of the
		// batched row's pass, which fetched no weights, gets an entry of
		// its own.
		{name: "equal service values",
			q:      sched.Query{ID: 8, MinAccuracy: 60},
			served: &serving.Served{SubNet: "r2", Row: 2, Latency: 4e-3, Accuracy: 78.25, HitRatio: 0.75, HitBytes: 1 << 33, OffChipEnergyJ: 2.5e-4},
			n:      1, wantModel: "resnet50"},
		{name: "batched non-first member",
			q:      sched.Query{ID: 9, Model: "mobilenetv3", MaxLatency: 5e-3},
			served: &serving.Served{SubNet: "m1", Row: 1, Latency: 6e-3, Accuracy: 75, Batch: 4, HitRatio: 1},
			n:      4, wantModel: "mobilenetv3"},
		{name: "policy strict-accuracy", q: sched.Query{ID: 1, Policy: pol(sched.StrictAccuracy)},
			served: &serving.Served{SubNet: "r0", Latency: 1e-3}, n: 1, wantModel: "resnet50"},
		{name: "policy strict-latency", q: sched.Query{ID: 2, Policy: pol(sched.StrictLatency)},
			served: &serving.Served{SubNet: "r0", Latency: 1e-3}, n: 1, wantModel: "resnet50"},
		{name: "policy min-energy", q: sched.Query{ID: 3, Policy: pol(sched.MinEnergy)},
			served: &serving.Served{SubNet: "r0", Latency: 1e-3}, n: 1, wantModel: "resnet50"},
		{name: "debited budget echoes as served",
			q:       sched.Query{ID: 4, MaxLatency: 8e-3},
			served:  &serving.Served{SubNet: "r1", Row: 1, Latency: 2e-3},
			rewrite: func(q *sched.Query) { q.MaxLatency = 3e-3 },
			n:       1, wantModel: "resnet50"},
		{name: "degrade override pointer",
			q:      sched.Query{ID: 5, MinAccuracy: 77, MaxLatency: 8e-3},
			served: &serving.Served{SubNet: "r0", Latency: 1e-3, Feasible: true},
			rewrite: func(q *sched.Query) {
				q.MinAccuracy, q.MaxLatency, q.Policy = 0, 1e-3, pol(sched.StrictLatency)
			},
			degraded: true, n: 1, wantModel: "resnet50"},
		{name: "dropped: echo only",
			q:        sched.Query{ID: 6, Model: "mobilenetv3", Class: "batch", MinAccuracy: 70, MaxLatency: 4e-3, Policy: pol(sched.MinEnergy)},
			degraded: true, why: ReasonShed, wantModel: "mobilenetv3"},
		// finish - latency rounds off the start for each of these.
		{name: "arrival 0", q: sched.Query{ID: 13}, at: &[2]float64{0, 0.1},
			served: &serving.Served{SubNet: "r0", Latency: 0.2}, n: 1, wantModel: "resnet50"},
		{name: "start + latency crosses a power of two", q: sched.Query{ID: 14}, at: &[2]float64{0.875, 0.9},
			served: &serving.Served{SubNet: "r0", Latency: 0.2}, n: 1, wantModel: "resnet50"},
		{name: "start + latency is a rounding tie", q: sched.Query{ID: 15}, at: &[2]float64{1 + 0x1p-52, 1 + 0x1p-52},
			served: &serving.Served{SubNet: "r0", Latency: 3 * 0x1p-53}, n: 1, wantModel: "resnet50"},
		// finish - E2ELatency rounds off an arrival earlier than its own
		// E2E latency; the start derives.
		{name: "arrival before its own E2E, served", q: sched.Query{ID: 16}, at: &[2]float64{0.1, 0.2},
			served: &serving.Served{SubNet: "r0", Latency: 0.3}, n: 1, wantModel: "resnet50"},
		{name: "arrival before its own E2E, dropped", q: sched.Query{ID: 17}, at: &[2]float64{0.1, 0.7},
			why: ReasonDeadline, wantModel: "resnet50"},
	}
	policies := []*sched.Policy{nil}
	for p := sched.Policy(-8); p < 8; p++ {
		if p.Valid() {
			policies = append(policies, pol(p))
		}
	}
	if len(policies) != 4 {
		t.Fatalf("%d valid policies, want 3", len(policies)-1)
	}
	for _, p := range policies {
		for _, degraded := range []bool{false, true} {
			for mi, model := range []string{"resnet50", "mobilenetv3"} {
				for _, class := range []string{"", "silver"} {
					for _, served := range []bool{false, true} {
						r := row{name: fmt.Sprintf("policy %s, degraded %t, %s, class %q, served %t", policyName(p), degraded, model, class, served),
							q:        sched.Query{ID: len(rows), Model: model, Class: class, MaxLatency: 7e-3, Policy: p},
							degraded: degraded, why: ReasonDeadline, wantModel: model}
						if served {
							r.served = &serving.Served{SubNet: []string{"r0", "m0"}[mi], Latency: 2e-3, Accuracy: 70, Feasible: true}
							r.why, r.n = ReasonNone, 1
						}
						rows = append(rows, r)
					}
				}
			}
		}
	}
	for i := 0; i < 300; i++ {
		// More classes than a byte indexes, each distinct; index-valued
		// ids and +0 floors after both columns exist.
		rows = append(rows, row{name: fmt.Sprintf("class %d", i),
			q:   sched.Query{ID: len(rows), Class: fmt.Sprintf("class-%03d", i)},
			why: ReasonRejected, wantModel: "resnet50"})
	}

	eng := twoTenantEngine()
	in := &interner{e: eng}
	var svcs serviceIndex
	res := &Result{Outcomes: make([]Outcome, len(rows)), models: eng.models, subnets: eng.subnets, services: []Service{{}}}
	want := make([]serving.TimedServed, len(rows))
	for i, r := range rows {
		arrival, start := float64(i), float64(i)+0.25
		if r.at != nil {
			arrival, start = r.at[0], r.at[1]
		}
		j := job{q: r.q, arrival: arrival, idx: i, degraded: r.degraded}
		if err := in.admit(&j); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if j.q.Model != r.wantModel {
			t.Fatalf("%s: admitted as model %q, want %q", r.name, j.q.Model, r.wantModel)
		}
		finish := start
		w := serving.TimedServed{Served: serving.Served{Query: j.q}, Dropped: true}
		if r.served != nil {
			s := *r.served
			s.Query = j.q
			if r.rewrite != nil {
				r.rewrite(&s.Query)
			}
			finish = start + s.Latency
			res.fill(&j, &s, svcs.intern(&res.services, &s, 0), 3, start, finish, ReasonNone, r.n)
			w = serving.TimedServed{Served: s}
		} else {
			res.fill(&j, nil, 0, 3, start, finish, r.why, 0)
		}
		if i < 2 && (res.idOff != nil || (res.minAcc != nil) != (i == 1)) {
			t.Fatalf("%s: after it, ID column allocated %t and floor column %t; want false and %t",
				r.name, res.idOff != nil, res.minAcc != nil, i == 1)
		}
		w.Arrival, w.Start, w.Finish = arrival, start, finish
		w.QueueDelay, w.E2ELatency = start-arrival, finish-arrival
		want[i] = w
	}
	res.classes = in.table()
	if len(res.classes) != 2+304 {
		t.Fatalf("class table holds %d pairs, want the 2 unclassed and 304 classed", len(res.classes))
	}
	if o := res.Outcomes[2:]; o[2].svc != o[0].svc || o[3].svc == o[1].svc {
		t.Errorf("service indices %d, %d, %d, %d: want rows 2 and 4 to share one, rows 3 and 5 to differ",
			o[0].svc, o[1].svc, o[2].svc, o[3].svc)
	}
	if err := errors.Join(res.checkService(), res.checkClass(), res.checkColumns(), res.checkAside()); err != nil {
		t.Error(err)
	}
	for i, r := range rows {
		got := res.Timed(i)
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s: Timed came back\n%+v (policy %v)\nwant\n%+v (policy %v)", r.name,
				got, policyOf(got), want[i], policyOf(want[i]))
		}
		// DeepEqual takes -0 for +0; the floor's bits must come back too.
		if g, w := got.Query.MinAccuracy, want[i].Query.MinAccuracy; math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: floor came back %g (sign bit %t), want %g (sign bit %t)", r.name, g, math.Signbit(g), w, math.Signbit(w))
		}
		o := res.Outcomes[i]
		if o.Replica != 3 || o.Reason != r.why || o.Degraded != r.degraded || int(o.Batch) != r.n || got.Query.ID != r.q.ID {
			t.Errorf("%s: record %+v (ID %d) lost a direct field", r.name, o, got.Query.ID)
		}
		// DeepEqual takes -0 for +0 here too: compare the instants' bits.
		g, w := got, want[i]
		for _, f := range []struct {
			name string
			g, w float64
		}{{"arrival", g.Arrival, w.Arrival}, {"start", g.Start, w.Start}, {"finish", g.Finish, w.Finish},
			{"E2E latency", g.E2ELatency, w.E2ELatency}, {"queue delay", g.QueueDelay, w.QueueDelay}} {
			if math.Float64bits(f.g) != math.Float64bits(f.w) {
				t.Errorf("%s: %s came back %b, want %b", r.name, f.name, math.Float64bits(f.g), math.Float64bits(f.w))
			}
		}
		if r.at != nil && o.flags&flagAside == 0 {
			t.Errorf("%s: instants (%g, %g) derived from the record, want them set aside", r.name, r.at[0], r.at[1])
		}
	}
}

// TestRunColumnsOnlyWhenNeeded: a RunProcess stream numbered by arrival
// index with no accuracy floor, the kind every in-tree producer makes,
// leaves both columns nil; one query off that pattern allocates its
// column alone, and Timed reads every query back as it was minted.
func TestRunColumnsOnlyWhenNeeded(t *testing.T) {
	reps := newReplicas(t, 2)
	budget := replicaLatHi(reps[0]) * 1.3
	eng, err := New(reps, Options{LoadAware: true, Drop: true})
	if err != nil {
		t.Fatal(err)
	}
	const n, odd = 400, 250
	for _, c := range []struct {
		name        string
		edit        func(q *sched.Query)
		wantID, acc bool
	}{
		{"index ids, no floor", func(*sched.Query) {}, false, false},
		{"one id off its index", func(q *sched.Query) { q.ID = -1 }, true, false},
		{"one floor", func(q *sched.Query) { q.MinAccuracy = 70 }, false, true},
	} {
		stream, err := workload.Poisson{Rate: 700}.Stream(3)
		if err != nil {
			t.Fatal(err)
		}
		mk := func(i int, _ float64) sched.Query {
			q := sched.Query{ID: i, MaxLatency: budget}
			if i == odd {
				c.edit(&q)
			}
			return q
		}
		res, err := eng.RunProcess(n, stream, mk)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Check(); err != nil {
			t.Fatal(err)
		}
		if (res.idOff != nil) != c.wantID || (res.minAcc != nil) != c.acc {
			t.Errorf("%s: ID column allocated %t, floor column %t; want %t and %t",
				c.name, res.idOff != nil, res.minAcc != nil, c.wantID, c.acc)
		}
		for i := range res.Outcomes {
			q := res.Timed(i).Query
			if want := mk(i, 0); q.ID != want.ID || q.MinAccuracy != want.MinAccuracy {
				t.Fatalf("%s: outcome %d came back as query %d, floor %g; want %d, %g", c.name, i, q.ID, q.MinAccuracy, want.ID, want.MinAccuracy)
			}
		}
	}
}

// TestServiceInternSharedSlot alternates two tuples that hash to one
// front slot: each evicts the other from the front, so every call after
// the first two misses it, and only the exact map keeps the table at the
// zero tuple plus the two.
func TestServiceInternSharedSlot(t *testing.T) {
	// sharing returns a tuple other than s whose front slot is s's.
	sharing := func(s serving.Served) *serving.Served {
		slot := func() uint8 {
			sv := Service{s.Latency, s.Accuracy, s.HitRatio, s.OffChipEnergyJ, s.HitBytes, 0}
			k := sv.key()
			return svcSlot(&k)
		}
		want := slot()
		for s.HitBytes++; slot() != want; s.HitBytes++ {
		}
		return &s
	}
	a := &serving.Served{Latency: 1e-3, Accuracy: 75}
	b := sharing(*a)
	var x serviceIndex
	tab := []Service{{}}
	for i := 0; i < 1000; i++ {
		if ia, ib := x.intern(&tab, a, 0), x.intern(&tab, b, 0); ia != 1 || ib != 2 {
			t.Fatalf("round %d: interned at %d and %d, want 1 and 2", i, ia, ib)
		}
	}
	if len(tab) != 3 {
		t.Errorf("table grew to %d entries, want 3", len(tab))
	}
	// The zero tuple, never appended, is found at entry 0 even with its
	// front slot taken.
	x.intern(&tab, sharing(serving.Served{}), 0)
	if i := x.intern(&tab, &serving.Served{}, 0); i != 0 || len(tab) != 4 {
		t.Errorf("zero tuple interned at %d, table %d entries; want 0 and 4", i, len(tab))
	}
}

func policyOf(ts serving.TimedServed) string { return policyName(ts.Query.Policy) }

func policyName(p *sched.Policy) string {
	if p == nil {
		return "none"
	}
	return p.String()
}

// TestOutcomeWidthLimits: every narrowed field of the record has a
// limit, and a configuration or stream past one is refused with an
// error that names it — never truncated.
func TestOutcomeWidthLimits(t *testing.T) {
	batched := func(b int) Batching { return Batching{MaxBatch: b, Window: 1e-3} }
	for _, c := range []struct {
		name                   string
		replicas, models, rows int
		b                      Batching
		want                   string
	}{
		{"at every limit", maxReplicas, maxModels, maxRows, batched(maxBatchMembers), ""},
		{"a huge batch size that never batches", 1, 1, 1, Batching{MaxBatch: 1 << 30}, ""},
		{"fleet size against Replica", maxReplicas + 1, 1, 7, Batching{}, "65537 replicas"},
		{"tenant count against the unclassed class indices", 4, maxModels + 1, 7, Batching{}, "65537 co-hosted models"},
		{"frontier length against Row", 4, 2, maxRows + 1, Batching{}, "65537 frontier SubNets"},
		{"Batching.MaxBatch against Batch", 4, 2, 7, batched(maxBatchMembers + 1), "Batching.MaxBatch 65536"},
	} {
		err := checkWidths(c.replicas, c.models, c.rows, c.b)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: refused: %v", c.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %q", c.name, err, c.want)
		}
	}

	// New is where the fleet and batch-former limits bite.
	reps := newReplicas(t, 1)
	if _, err := New(reps, Options{Batching: batched(maxBatchMembers + 1)}); err == nil || !strings.Contains(err.Error(), "Batching.MaxBatch") {
		t.Errorf("New accepted a batch size the record cannot count: %v", err)
	}
	fleet := make([]*serving.Replica, maxReplicas+1)
	for i := range fleet {
		fleet[i] = reps[0]
	}
	if _, err := New(fleet, Options{}); err == nil || !strings.Contains(err.Error(), "replicas") {
		t.Errorf("New accepted a fleet the record cannot index: %v", err)
	}

	// Distinct (model, class) pairs against the class index, which
	// keeps one entry per model for its unclassed traffic, and a policy
	// override outside the scheduler's set, are refused as the query
	// arrives. One class on both models is two pairs.
	eng := twoTenantEngine()
	in := &interner{e: eng}
	limit := maxClasses - len(eng.models)
	for i := 0; i < limit; i++ {
		if err := in.admit(&job{q: sched.Query{ID: i, Model: eng.models[i%2], Class: fmt.Sprintf("c%d", i/2)}}); err != nil {
			t.Fatalf("pair %d of %d refused: %v", i+1, limit, err)
		}
	}
	for _, q := range []sched.Query{{Class: "c0"}, {Model: "mobilenetv3", Class: "c0"}, {}} {
		if err := in.admit(&job{q: q}); err != nil {
			t.Errorf("a known pair or unclassed query %+v refused at the limit: %v", q, err)
		}
	}
	if err := in.admit(&job{q: sched.Query{ID: 9, Model: "mobilenetv3", Class: "c32767"}}); err == nil || !strings.Contains(err.Error(), "65534 (model, class) pairs") {
		t.Errorf("pair %d accepted: %v", limit+1, err)
	}
	bad := sched.Policy(300)
	if err := in.admit(&job{q: sched.Query{ID: 9, Policy: &bad}}); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("policy %v accepted: %v", bad, err)
	}
}
