package serving

import "sushi/internal/sched"

// Timed serving data types — the ONE authoritative note on where
// open-loop queueing lives. This file defines only the data shapes
// (TimedQuery in, TimedServed out); the queueing semantics themselves —
// FIFO arrival-order service, bounded queues, admission control,
// load-aware budget debiting, and the micro-batch former (flush on full
// batch or window expiry) — live in exactly one place: the virtual-time
// discrete-event engine in internal/simq, entered through simq.New or
// FromCluster + Run (surfaced publicly as sushi.Cluster.Simulate and
// POST /v1/simulate). A single accelerator is a one-replica engine, and
// its aggregates come from the engine's Accumulator like any other run.
// There is no wall-clock queueing loop anywhere in this package.

// TimedQuery is a query with an arrival time (seconds since stream start).
type TimedQuery struct {
	sched.Query
	// Arrival is when the query enters the queue.
	Arrival float64
}

// TimedServed is the outcome of one timed query: service outcome plus
// queueing telemetry.
type TimedServed struct {
	Served
	// Arrival, Start, Finish are absolute times; QueueDelay = Start-Arrival.
	Arrival, Start, Finish, QueueDelay float64
	// E2ELatency is Finish-Arrival (queueing + service).
	E2ELatency float64
	// Dropped reports the query was abandoned — its deadline passed
	// before service could begin, or admission control rejected or shed
	// it (§1's transient-overload failure mode). Dropped queries have a
	// zero Served.
	Dropped bool
}
