package simq

// Elastic-fleet control for the virtual-time engine: the glue between
// internal/autoscale (which only decides a target fleet size) and the
// event loop (which owns replica lifecycle as first-class events). The
// controller is evaluated on a fixed virtual-time cadence — k·Interval
// for k = 1, 2, ... — after completions and window expiries but before
// arrivals at the same instant, so elastic runs stay deterministic per
// seed. Scale-ups boot the lowest-index Standby (or Retired) replica
// and charge its cold Persistent-Buffer fill as busy time, exactly
// like a re-cache; scale-downs drain the highest-index Active replica
// (LIFO, so long-lived replicas keep their warmed caches) and retire
// it once its queue and in-flight batch are gone.

import (
	"fmt"
	"math"

	"sushi/internal/autoscale"
	"sushi/internal/serving"
)

// maxEvalsPerQuery bounds a run's autoscale evaluations to a fixed
// multiple of its stream length. The cadence is k·Interval whatever the
// arrivals do, so an Interval far below the arrival spacing would
// otherwise spend the whole run evaluating (and one below the virtual
// clock's float resolution would never advance it). A policy sees
// nothing new between events, so hundreds of evaluations per query are
// already waste: the experiments and the benchmark stay below one.
const maxEvalsPerQuery = 256

// EvalLimitError reports a run whose autoscale Interval is too short
// for its stream: maxEvalsPerQuery evaluations per query came due. The
// run drains on the fleet it had at that point before the error is
// returned.
type EvalLimitError struct {
	// Interval is the offending evaluation cadence in virtual seconds.
	Interval float64
	// Queries is the run's stream length.
	Queries int
}

// Error implements error.
func (e *EvalLimitError) Error() string {
	return fmt.Sprintf("simq: autoscale interval %g s is too short for this stream: %d evaluations per query came due in a %d-query run (raise the interval)",
		e.Interval, maxEvalsPerQuery, e.Queries)
}

// elasticState is the engine's per-run autoscaling controller.
type elasticState struct {
	cfg *autoscale.Config
	// evalsLeft is what remains of the run's evaluation budget.
	evalsLeft int
	// nextEval is the next evaluation instant (k·Interval).
	nextEval float64
	// lastAction is the instant of the last enacted scale action
	// (cooldown anchor); -Inf until the first action.
	lastAction float64
	// Cumulative run counters, snapshotted at each evaluation so
	// policies see per-window deltas.
	arrivals, resolved, sloMet int
	// prev* hold the previous evaluation's snapshot.
	prevArrivals, prevResolved, prevSLOMet int
	prevQueueDepth                         int
	prevBusy, prevOn                       float64
	// scaleUps and scaleDowns count enacted replica transitions.
	scaleUps, scaleDowns int
}

func newElasticState(cfg *autoscale.Config, queries int) *elasticState {
	return &elasticState{
		cfg:        cfg,
		evalsLeft:  maxEvalsPerQuery * queries,
		nextEval:   cfg.Interval,
		lastAction: math.Inf(-1),
	}
}

// busyUpTo is the replica's accumulated service time at instant now.
// Event ordering guarantees now <= freeAt while busy (completions at
// or before now fire before any evaluation at now).
func (st *replicaState) busyUpTo(now float64) float64 {
	if st.busy {
		return st.busyTotal + (now - st.busySince)
	}
	return st.busyTotal
}

// onUpTo is the replica's accumulated admitting-capacity time (Active
// plus Draining — the replica occupies hardware until retired) at now.
func (st *replicaState) onUpTo(now float64) float64 {
	if st.on {
		return st.onTotal + (now - st.onSince)
	}
	return st.onTotal
}

// metrics assembles the windowed observation for the policy: deltas
// since the previous evaluation plus the instantaneous fleet state.
func (c *elasticState) metrics(now float64, states []replicaState, active int) autoscale.Metrics {
	var busy, on float64
	depth := 0
	for i := range states {
		busy += states[i].busyUpTo(now)
		on += states[i].onUpTo(now)
		depth += states[i].qlen() + states[i].inFlight
	}
	util := 0.0
	if cap := on - c.prevOn; cap > 0 {
		util = (busy - c.prevBusy) / cap
		if util < 0 {
			util = 0
		}
		if util > 1 {
			util = 1
		}
	}
	return autoscale.Metrics{
		Time:           now,
		Interval:       c.cfg.Interval,
		Active:         active,
		Min:            c.cfg.Min,
		Max:            c.cfg.Max,
		Utilization:    util,
		Arrivals:       c.arrivals - c.prevArrivals,
		Completions:    c.resolved - c.prevResolved,
		SLOMet:         c.sloMet - c.prevSLOMet,
		QueueDepth:     depth,
		PrevQueueDepth: c.prevQueueDepth,
	}
}

// snapshot closes the window: the next evaluation's deltas start here.
func (c *elasticState) snapshot(now float64, states []replicaState, depth int) {
	var busy, on float64
	for i := range states {
		busy += states[i].busyUpTo(now)
		on += states[i].onUpTo(now)
	}
	c.prevBusy, c.prevOn = busy, on
	c.prevArrivals, c.prevResolved, c.prevSLOMet = c.arrivals, c.resolved, c.sloMet
	c.prevQueueDepth = depth
}

// desired clamps the policy's verdict to the config bounds.
func (c *elasticState) desired(m autoscale.Metrics) int {
	d := c.cfg.Policy.Desired(m)
	if d < c.cfg.Min {
		d = c.cfg.Min
	}
	if d > c.cfg.Max {
		d = c.cfg.Max
	}
	return d
}

// evaluate is one autoscale evaluation event at instant now: consult
// the policy over the closed window, enact the delta as lifecycle
// transitions, and open the next window.
//
// Scale-up boots the lowest-index Standby (or previously Retired)
// replica: it joins the admitting set immediately — queries may queue
// behind the boot — but its cold Persistent-Buffer fill occupies the
// accelerator first, charged as busy time exactly like a re-cache (a
// re-booted Retired replica pays the fill again: its PB is stale by
// assumption). Scale-down drains the highest-index Active replica
// (LIFO keeps long-lived caches warm): it stops admitting at once,
// finishes its queued and in-flight work, and retires when empty.
func (r *runner) evaluate(now float64) {
	ctl, states := r.ctl, r.states
	active := 0
	for _, rep := range r.e.reps {
		if rep.Lifecycle() == serving.LifecycleActive {
			active++
		}
	}
	m := ctl.metrics(now, states, active)
	desired := ctl.desired(m)
	if now-ctl.lastAction < ctl.cfg.Cooldown {
		// Cooling down: observe the window but hold the fleet.
		desired = active
	}
	changed := false
	for desired > active {
		bi := -1
		for i, rep := range r.e.reps {
			if lc := rep.Lifecycle(); lc == serving.LifecycleStandby || lc == serving.LifecycleRetired {
				bi = i
				break
			}
		}
		if bi < 0 {
			// Every spare replica is still draining; the fleet catches up
			// at a later evaluation.
			break
		}
		st := &states[bi]
		r.e.reps[bi].SetLifecycle(serving.LifecycleActive)
		st.on, st.onSince = true, now
		if boot := r.e.reps[bi].BootCost(); boot > 0 {
			st.busy, st.freeAt, st.inFlight = true, now+boot, 0
			st.busySince = now
			r.heap.push(event{t: st.freeAt, kind: evComplete, rep: int32(bi)})
		}
		ctl.scaleUps++
		active++
		changed = true
	}
	for desired < active {
		di := -1
		for i := len(r.e.reps) - 1; i >= 0; i-- {
			if r.e.reps[i].Lifecycle() == serving.LifecycleActive {
				di = i
				break
			}
		}
		if di < 0 {
			break
		}
		r.e.reps[di].SetLifecycle(serving.LifecycleDraining)
		ctl.scaleDowns++
		active--
		changed = true
		// An idle, empty replica retires on the spot.
		r.maybeRetire(di, now)
	}
	if changed {
		r.rebuildAdmit()
		ctl.lastAction = now
	}
	depth := 0
	for i := range states {
		depth += states[i].qlen() + states[i].inFlight
	}
	ctl.snapshot(now, states, depth)
}
