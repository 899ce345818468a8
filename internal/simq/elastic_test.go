package simq

import (
	"errors"
	"reflect"
	"testing"

	"sushi/internal/accel"
	"sushi/internal/autoscale"
	"sushi/internal/sched"
	"sushi/internal/serving"
)

// stepPolicy forces the fleet to Max before cut and Min after — a
// deterministic lifecycle exerciser: every Standby replica boots at the
// first evaluation, every extra replica drains after the cut.
type stepPolicy struct{ cut float64 }

func (stepPolicy) Name() string { return "step" }

func (p stepPolicy) Desired(m autoscale.Metrics) int {
	if m.Time < p.cut {
		return m.Max
	}
	return m.Min
}

// newNamedReplicas is newReplicas with a single NAMED tenant per
// replica, so outcome echoes carry a real model id.
func newNamedReplicas(t *testing.T, r int, model string) []*serving.Replica {
	t.Helper()
	s, fr := fixtures(t)
	opt := serving.Options{
		Accel:      accel.ZCU104(),
		Policy:     sched.StrictLatency,
		Q:          4,
		Mode:       serving.Full,
		Candidates: 12,
		Seed:       1,
	}
	table, _, err := serving.BuildTable(s, fr, opt)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*serving.Replica, r)
	for i := range reps {
		o := opt
		o.Table = table
		o.StaticColumn = i % table.Cols()
		sys, err := serving.New(s, fr, o)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := serving.NewMultiReplica(i, []serving.Tenant{{Model: model, Sys: sys}})
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	return reps
}

// elasticFixtureRun drives 4 replicas (1 admitting, 3 standby) through
// an overloaded stream with a step policy that scales to 4 and back.
func elasticFixtureRun(t *testing.T, reps []*serving.Replica, model string) *Result {
	t.Helper()
	budget := replicaLatHi(reps[0]) * 1.4
	qs := timedStream(t, 120, 500, budget)
	for i := range qs {
		qs[i].Model = model
	}
	span := qs[len(qs)-1].Arrival
	eng, err := New(reps, Options{
		QueueCap:  4,
		Admission: Reject,
		LoadAware: true,
		Drop:      true,
		Router:    serving.NewLeastLoaded(),
		Autoscale: &autoscale.Config{
			Min: 1, Max: 4, Interval: span / 40,
			Policy: stepPolicy{cut: span / 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return checked(t, eng, qs)
}

// TestAutoscaleLifecycleScaleUpDown is the lifecycle happy path: the
// step policy boots all three Standby replicas, then drains them back
// out, and the capacity integral lands strictly between the Min-only
// and all-Max fleets.
func TestAutoscaleLifecycleScaleUpDown(t *testing.T) {
	reps := newReplicas(t, 4)
	res := elasticFixtureRun(t, reps, "")
	if res.ScaleUps != 3 {
		t.Errorf("scale-ups %d, want 3 (step policy boots every standby at the first eval)", res.ScaleUps)
	}
	if res.ScaleDowns != 3 {
		t.Errorf("scale-downs %d, want 3", res.ScaleDowns)
	}
	if res.ReplicaSeconds <= res.Makespan || res.ReplicaSeconds >= 4*res.Makespan {
		t.Errorf("replica-seconds %.3f outside (makespan %.3f, 4x makespan)",
			res.ReplicaSeconds, res.Makespan)
	}
	if res.Served+res.Dropped != res.Queries {
		t.Errorf("served %d + dropped %d != %d queries", res.Served, res.Dropped, res.Queries)
	}
	served := 0
	for i := 1; i < 4; i++ {
		served += res.ReplicaQueries[i]
	}
	if served == 0 {
		t.Error("no booted replica ever served a query")
	}
}

// TestAutoscaleLifecycleDrainRetires checks the scale-down contract: a
// drained replica finishes its queued work (drain ≠ drop) and no
// replica is left stuck in Draining when the run ends.
func TestAutoscaleLifecycleDrainRetires(t *testing.T) {
	reps := newReplicas(t, 4)
	elasticFixtureRun(t, reps, "")
	for i, r := range reps {
		switch l := r.Lifecycle(); l {
		case serving.LifecycleActive, serving.LifecycleRetired:
			// Replica 0 stays active (Min = 1); 1..3 must have finished
			// their drains.
		default:
			t.Errorf("replica %d ended in %v, want active or retired", i, l)
		}
	}
	for i := 1; i < 4; i++ {
		if reps[i].Lifecycle() != serving.LifecycleRetired {
			t.Errorf("replica %d not retired after the scale-down", i)
		}
	}
}

// TestAutoscaleDeterministic replays the identical elastic run over
// fresh fleets and expects byte-identical results: lifecycle events
// ride the virtual-time cadence, never the wall clock.
func TestAutoscaleDeterministic(t *testing.T) {
	a := elasticFixtureRun(t, newReplicas(t, 4), "")
	b := elasticFixtureRun(t, newReplicas(t, 4), "")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("elastic runs diverge across reruns:\n%+v\n%+v", a.Summary, b.Summary)
	}
}

// TestAutoscaleDisabledIsInert pins the fixed-fleet fast path: a
// Min == Max config (Enabled() false) must produce the same Result,
// field for field, as no config at all.
func TestAutoscaleDisabledIsInert(t *testing.T) {
	budget := 0.0
	run := func(cfg *autoscale.Config) *Result {
		reps := newReplicas(t, 2)
		if budget == 0 {
			budget = replicaLatHi(reps[0]) * 1.4
		}
		qs := timedStream(t, 80, 400, budget)
		eng, err := New(reps, Options{
			QueueCap: 3, Admission: Reject, LoadAware: true, Drop: true,
			Router: serving.NewLeastLoaded(), Autoscale: cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(qs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pinned := run(&autoscale.Config{Min: 2, Max: 2, Interval: 0.01,
		Policy: autoscale.TargetUtilization{}})
	fixed := run(nil)
	if !reflect.DeepEqual(pinned, fixed) {
		t.Errorf("Min == Max run differs from fixed-fleet run:\n%+v\n%+v",
			pinned.Summary, fixed.Summary)
	}
	if pinned.ScaleUps != 0 || pinned.ScaleDowns != 0 {
		t.Errorf("pinned fleet scaled: %d up %d down", pinned.ScaleUps, pinned.ScaleDowns)
	}
}

// TestAutoscaleOptionsValidation rejects broken configs at engine
// construction: invalid bounds and a Max the deployment never built.
func TestAutoscaleOptionsValidation(t *testing.T) {
	reps := newReplicas(t, 2)
	pol := autoscale.TargetUtilization{}
	if _, err := New(reps, Options{Autoscale: &autoscale.Config{Min: 0, Max: 2, Interval: 0.1, Policy: pol}}); err == nil {
		t.Error("Min 0 accepted")
	}
	if _, err := New(reps, Options{Autoscale: &autoscale.Config{Min: 3, Max: 2, Interval: 0.1, Policy: pol}}); err == nil {
		t.Error("Max < Min accepted")
	}
	if _, err := New(reps, Options{Autoscale: &autoscale.Config{Min: 1, Max: 2, Interval: 0, Policy: pol}}); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := New(reps, Options{Autoscale: &autoscale.Config{Min: 1, Max: 3, Interval: 0.1, Policy: pol}}); err == nil {
		t.Error("Max beyond the built replica set accepted")
	}
}

// TestAutoscaleEvaluationsBounded: an interval so short that the
// cadence would never reach the first arrival (1e-300 s is below the
// virtual clock's resolution once it has advanced at all) ends in a
// typed EvalLimitError, after the run has drained and released every
// reservation it took on the replicas.
func TestAutoscaleEvaluationsBounded(t *testing.T) {
	reps := newReplicas(t, 2)
	eng, err := New(reps, Options{
		Router:    serving.NewLeastLoaded(),
		Autoscale: &autoscale.Config{Min: 1, Max: 2, Interval: 1e-300, Policy: autoscale.TargetUtilization{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(timedStream(t, 20, 400, replicaLatHi(reps[0])*1.4))
	var limit *EvalLimitError
	if !errors.As(err, &limit) {
		t.Fatalf("want *EvalLimitError, got %v", err)
	}
	if limit.Queries != 20 || limit.Interval != 1e-300 {
		t.Errorf("error carries %d queries, interval %g", limit.Queries, limit.Interval)
	}
	for _, rep := range reps {
		if d := rep.QueueDepth(); d != 0 {
			t.Errorf("replica %d still holds %d reservations", rep.ID(), d)
		}
	}
}

// TestElasticDrainDropsCarryQueryEcho is the drop-echo regression: every
// drop outcome — including deadline drops surfacing from a DRAINING
// replica's queue — must carry the full Query echo (model id + latency
// budget) so per-model drop accounting stays exact during a drain.
func TestElasticDrainDropsCarryQueryEcho(t *testing.T) {
	const model = "mbv3"
	reps := newNamedReplicas(t, 4, model)
	// Budgets barely above service latency + load-aware debiting +
	// bounded queues: overload guarantees deadline drops, the step
	// policy guarantees they keep happening after the drains start.
	budget := replicaLatHi(reps[0]) * 1.05
	qs := timedStream(t, 150, 900, budget)
	for i := range qs {
		qs[i].Model = model
	}
	span := qs[len(qs)-1].Arrival
	eng, err := New(reps, Options{
		QueueCap:  6,
		Admission: Reject,
		LoadAware: true,
		Drop:      true,
		Router:    serving.NewLeastLoaded(),
		Autoscale: &autoscale.Config{
			Min: 1, Max: 4, Interval: span / 50,
			Policy: stepPolicy{cut: span / 3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := checked(t, eng, qs)
	if res.ScaleDowns == 0 {
		t.Fatal("no scale-down happened; the fixture no longer exercises drains")
	}
	drops, deadline := 0, 0
	for i := range res.Outcomes {
		o := res.Timed(i)
		if !o.Dropped {
			continue
		}
		drops++
		if res.Outcomes[i].Reason == ReasonDeadline {
			deadline++
		}
		if o.Query.Model != model {
			t.Errorf("outcome %d: dropped query lost its model echo (%q)", i, o.Query.Model)
		}
		if o.Query.MaxLatency != qs[o.Query.ID].MaxLatency {
			t.Errorf("outcome %d: dropped query lost its budget echo (%g)", i, o.Query.MaxLatency)
		}
		// Apart from the Query echo the Served half of a drop must be
		// zero (Result.Check's drop rule holds the record to the same).
		echo := serving.Served{Query: o.Query}
		if o.Served != echo {
			t.Errorf("outcome %d: dropped query carries service fields: %+v", i, o.Served)
		}
		if res.Outcomes[i].Batch != 0 || res.Service(i).RecacheSec != 0 {
			t.Errorf("outcome %d: dropped query carries batch/recache fields", i)
		}
	}
	if drops == 0 || deadline == 0 {
		t.Fatalf("fixture produced %d drops (%d deadline); overload it harder", drops, deadline)
	}
}

// replicaLatHi reads the budget scale off a replica's default tenant.
func replicaLatHi(rep *serving.Replica) float64 {
	var v float64
	rep.Inspect(func(sys *serving.System) { v = latHi(sys) })
	return v
}
