// Package autoscale decides how many replicas an elastic SUSHI fleet
// should keep admitting queries. The paper's SubGraph-stationary design
// (§4) makes capacity changes expensive in a very specific way: a
// replica that joins the fleet boots with a cold Persistent Buffer and
// must stream its SubGraph from off-chip memory before it is useful —
// exactly a re-cache fill, charged in virtual time by the simq engine.
// The policies here only *decide* the target fleet size; the engine
// owns the lifecycle mechanics (boot → admit → drain → retire) and
// evaluates a policy on a fixed virtual-time cadence so elastic runs
// stay deterministic per seed.
package autoscale

import (
	"fmt"
	"math"
)

// Config parameterizes an elastic fleet. The engine boots Max replicas
// up front (cache columns are assigned at deploy time through the usual
// boot-column/PartitionPolicy machinery) and keeps between Min and Max
// of them admitting queries, consulting Policy every Interval virtual
// seconds.
type Config struct {
	// Min and Max bound the admitting replica count. Min == Max (or a
	// nil Policy) disables scaling entirely: the run is bit-identical
	// to a fixed fleet of that size.
	Min, Max int
	// Policy decides the target fleet size at each evaluation.
	Policy Policy
	// Interval is the evaluation cadence in virtual seconds.
	Interval float64
	// Cooldown is the minimum virtual time between enacted scale
	// actions (0 = act on every evaluation).
	Cooldown float64
}

// Enabled reports whether the config can ever change the fleet size.
func (c *Config) Enabled() bool {
	return c != nil && c.Policy != nil && c.Max > c.Min
}

// Validate rejects non-sensical bounds and cadences.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	if c.Min < 1 {
		return fmt.Errorf("autoscale: Min %d < 1", c.Min)
	}
	if c.Max < c.Min {
		return fmt.Errorf("autoscale: Max %d < Min %d", c.Max, c.Min)
	}
	if !(c.Interval > 0) {
		return fmt.Errorf("autoscale: non-positive interval %g", c.Interval)
	}
	if c.Cooldown < 0 || math.IsNaN(c.Cooldown) {
		return fmt.Errorf("autoscale: negative cooldown %g", c.Cooldown)
	}
	return nil
}

// Metrics is the windowed observation handed to a Policy at each
// evaluation: what happened since the previous evaluation, plus the
// instantaneous fleet state. All times are virtual seconds.
type Metrics struct {
	// Time is the evaluation instant; Interval the window length.
	Time, Interval float64
	// Active is the number of replicas currently admitting queries;
	// Min and Max echo the config bounds.
	Active, Min, Max int
	// Utilization is the fleet's busy-time fraction over the window:
	// accumulated service time divided by accumulated admitting
	// capacity (active replica-seconds). In [0, 1].
	Utilization float64
	// Arrivals and Completions count queries that arrived / resolved
	// inside the window (drops resolve too — as misses); SLOMet counts
	// resolutions that met their end-to-end latency budget.
	Arrivals, Completions, SLOMet int
	// QueueDepth is the fleet-wide queued + in-flight query count at
	// the evaluation instant; PrevQueueDepth the same at the previous
	// evaluation.
	QueueDepth, PrevQueueDepth int
}

// Attainment is the window's SLO attainment (1 when nothing completed:
// an idle fleet is not missing deadlines).
func (m Metrics) Attainment() float64 {
	if m.Completions == 0 {
		return 1
	}
	return float64(m.SLOMet) / float64(m.Completions)
}

// QueueGrowthRate is the queue-depth derivative over the window in
// queries/second — positive when the fleet is falling behind.
func (m Metrics) QueueGrowthRate() float64 {
	if !(m.Interval > 0) {
		return 0
	}
	return float64(m.QueueDepth-m.PrevQueueDepth) / m.Interval
}

// Policy decides the target number of admitting replicas. Desired may
// return any value; the engine clamps it to [Min, Max]. Policies must
// be deterministic functions of Metrics so elastic runs reproduce per
// seed.
type Policy interface {
	// Name labels the policy in flags, telemetry and experiment tables.
	Name() string
	// Desired returns the target admitting replica count.
	Desired(m Metrics) int
}

// The policies' set-points: the utilization TargetUtilization holds,
// the attainment floor below which SLOAttainment scales up, and the
// utilization below which it sheds a replica from an idle fleet.
const (
	utilizationTarget = 0.7
	sloTarget         = 0.99
	sloLow            = 0.5
)

// TargetUtilization scales the fleet to hold busy-time utilization at
// 0.7 — the classic capacity controller: desired = ceil(active · util /
// 0.7).
type TargetUtilization struct{}

// Name implements Policy.
func (TargetUtilization) Name() string { return "utilization" }

// Desired implements Policy.
func (TargetUtilization) Desired(m Metrics) int {
	if m.Active == 0 {
		return m.Min
	}
	return int(math.Ceil(float64(m.Active) * m.Utilization / utilizationTarget))
}

// SLOAttainment scales up whenever the window's attainment drops below
// 0.99 and scales down one replica at a time when the fleet is both
// under-utilized (below 0.5) and has no backlog — deadline misses are
// the signal the paper's (A_t, L_t) contract makes first-class.
type SLOAttainment struct{}

// Name implements Policy.
func (SLOAttainment) Name() string { return "slo" }

// Desired implements Policy.
func (SLOAttainment) Desired(m Metrics) int {
	if m.Attainment() < sloTarget {
		return m.Active + 1
	}
	if m.Utilization < sloLow && m.QueueDepth == 0 {
		return m.Active - 1
	}
	return m.Active
}

// Saturation watches the queue-depth growth rate: a queue that grows
// across a window means arrivals outpace service no matter what the
// utilization average says, so the fleet adds capacity before latency
// collapses; an empty, quiet fleet sheds it.
type Saturation struct{}

// Name implements Policy.
func (Saturation) Name() string { return "saturation" }

// Desired implements Policy.
func (p Saturation) Desired(m Metrics) int {
	if m.QueueGrowthRate() > 0 && m.QueueDepth > m.Active {
		return m.Active + 1
	}
	if m.QueueDepth == 0 && m.PrevQueueDepth == 0 && m.Utilization < 0.5 {
		return m.Active - 1
	}
	return m.Active
}

// PolicyNames lists the ParsePolicy spellings, canonical first.
func PolicyNames() []string { return []string{"utilization", "slo", "saturation"} }

// ParsePolicy resolves a policy by name (flag / HTTP spelling) with
// default parameters. Recognized: "utilization"/"target-utilization",
// "slo"/"slo-attainment", "saturation"/"queue-growth".
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "utilization", "target-utilization":
		return TargetUtilization{}, nil
	case "slo", "slo-attainment":
		return SLOAttainment{}, nil
	case "saturation", "queue-growth":
		return Saturation{}, nil
	}
	return nil, fmt.Errorf("autoscale: unknown policy %q (have %v)", name, PolicyNames())
}
