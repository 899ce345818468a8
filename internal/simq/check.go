package simq

import (
	"errors"
	"fmt"
	"sort"
)

// Check holds a finished run to the engine's invariants, one rule at a
// time, and returns every rule that fails (joined; nil when all hold).
// It is for tests: the shared helpers of this package's tests and the
// root golden digests call it on every run they make.
//
//   - conservation: arrivals = served + each drop reason, by the
//     result's counters and by a recount of the outcomes;
//   - order: no query starts before it arrives or finishes before it
//     starts;
//   - flush: the members of one pass (same replica, same Start) share
//     Finish, Row, model, policy override and Batch, and Batch is their
//     number;
//   - overlap: per replica, the busy intervals [Start, Finish +
//     RecacheSec] of distinct passes never overlap;
//   - drop: a dropped query has Batch 0 and no service field, and
//     starts at its finish;
//   - service: the service table starts with the zero tuple and holds
//     each tuple once, and every record's index is in it;
//   - class: the class table starts with each model's unclassed pair,
//     in model order, then holds classed pairs of known models, each
//     once, and every record's index is in it;
//   - columns: the ID-offset and accuracy-floor columns are each nil or
//     one slot per record;
//   - aside: a record is flagged flagAside if and only if the aside map
//     holds its instants.
//
// Order, flush and overlap read each served record's start through its
// service latency, so they run only once the service rule holds; flush
// reads each record's model through its class, so it also waits for
// the class rule.
func (r *Result) Check() error {
	svc, class := r.checkService(), r.checkClass()
	errs := []error{r.checkConservation(), r.checkDrop(), svc, class, r.checkColumns(), r.checkAside()}
	if svc == nil {
		errs = append(errs, r.checkOrder(), r.checkOverlap())
		if class == nil {
			errs = append(errs, r.checkFlush())
		}
	}
	return errors.Join(errs...)
}

func (r *Result) checkConservation() error {
	if r.Queries != r.Served+r.Dropped || r.Dropped != r.DeadlineDrops+r.Rejected+r.Shed {
		return fmt.Errorf("simq: check conservation: counters do not add up: %d queries, %d served, %d dropped (%d deadline, %d rejected, %d shed)",
			r.Queries, r.Served, r.Dropped, r.DeadlineDrops, r.Rejected, r.Shed)
	}
	var served int
	var byReason [ReasonShed + 1]int
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		if o.Reason > ReasonShed || o.Dropped != (o.Reason != ReasonNone) {
			return fmt.Errorf("simq: check conservation: outcome %d: dropped=%t with reason %v", i, o.Dropped, o.Reason)
		}
		byReason[o.Reason]++
		if !o.Dropped {
			served++
		}
	}
	if len(r.Outcomes) != r.Queries || served != r.Served || byReason[ReasonDeadline] != r.DeadlineDrops ||
		byReason[ReasonRejected] != r.Rejected || byReason[ReasonShed] != r.Shed {
		return fmt.Errorf("simq: check conservation: %d outcomes recount to %d served, %d deadline, %d rejected, %d shed; the counters say %d queries, %d, %d, %d, %d",
			len(r.Outcomes), served, byReason[ReasonDeadline], byReason[ReasonRejected], byReason[ReasonShed],
			r.Queries, r.Served, r.DeadlineDrops, r.Rejected, r.Shed)
	}
	return nil
}

func (r *Result) checkOrder() error {
	for i := range r.Outcomes {
		if arrival, start := r.times(i); !(arrival <= start && start <= r.Outcomes[i].Finish) {
			return fmt.Errorf("simq: check order: outcome %d: arrival %g, start %g, finish %g", i, arrival, start, r.Outcomes[i].Finish)
		}
	}
	return nil
}

// pass is one accelerator pass as the outcomes record it: the served
// queries of one replica that share a Start.
type pass struct {
	passKey
	// end is when the replica frees: Finish plus the re-cache the pass
	// triggered. head is the first member's outcome index.
	end           float64
	head, members int
}

type passKey struct {
	replica uint16
	start   float64
}

// passes regroups the served outcomes into passes, in order of each
// pass's first member, with the index to find an outcome's pass by.
func (r *Result) passes() ([]pass, map[passKey]int) {
	var ps []pass
	at := map[passKey]int{}
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		if o.Dropped {
			continue
		}
		_, start := r.times(i)
		k := passKey{o.Replica, start}
		pi, ok := at[k]
		if !ok {
			pi = len(ps)
			at[k] = pi
			ps = append(ps, pass{passKey: k, head: i})
		}
		ps[pi].members++
		end := o.Finish
		if int(o.svc) < len(r.services) { // else the service rule's to report
			end += r.services[o.svc].RecacheSec
		}
		ps[pi].end = max(ps[pi].end, end)
	}
	return ps, at
}

func (r *Result) checkFlush() error {
	ps, at := r.passes()
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		if o.Dropped {
			continue
		}
		_, start := r.times(i)
		p := &ps[at[passKey{o.Replica, start}]]
		if h := &r.Outcomes[p.head]; o.Finish != h.Finish || o.Row != h.Row || r.classes[o.class].model != r.classes[h.class].model ||
			o.flags&policyMask != h.flags&policyMask || o.Batch != h.Batch {
			return fmt.Errorf("simq: check flush: outcomes %d and %d share replica %d's pass at %g but differ in finish, row, model, policy or batch:\n%+v\n%+v",
				p.head, i, o.Replica, start, *h, *o)
		}
		if p.members != int(o.Batch) {
			return fmt.Errorf("simq: check flush: replica %d's pass at %g has %d members but outcome %d records batch size %d",
				o.Replica, start, p.members, i, o.Batch)
		}
	}
	return nil
}

func (r *Result) checkOverlap() error {
	ps, _ := r.passes()
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].replica != ps[j].replica {
			return ps[i].replica < ps[j].replica
		}
		return ps[i].start < ps[j].start
	})
	for i := 1; i < len(ps); i++ {
		if a, b := &ps[i-1], &ps[i]; a.replica == b.replica && a.end > b.start {
			return fmt.Errorf("simq: check overlap: replica %d is busy until %g with the pass begun at %g, yet begins another at %g",
				a.replica, a.end, a.start, b.start)
		}
	}
	return nil
}

func (r *Result) checkDrop() error {
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		if !o.Dropped {
			continue
		}
		echo := Outcome{Finish: o.Finish, E2ELatency: o.E2ELatency,
			MaxLatency: o.MaxLatency, Replica: o.Replica,
			class: o.class, flags: o.flags & (flagAside | policyMask),
			Reason: o.Reason, Degraded: o.Degraded, Dropped: true}
		if *o != echo {
			return fmt.Errorf("simq: check drop: dropped outcome %d carries service fields: %+v", i, *o)
		}
		if _, start := r.times(i); start != o.Finish {
			return fmt.Errorf("simq: check drop: dropped outcome %d starts at %g but finishes at %g", i, start, o.Finish)
		}
	}
	return nil
}

func (r *Result) checkService() error {
	seen := map[svcKey]int{}
	for i := range r.services {
		k := r.services[i].key()
		if j, ok := seen[k]; ok || i == 0 && k != (svcKey{}) {
			return fmt.Errorf("simq: check service: entry %d, %+v, repeats entry %d or is a nonzero entry 0", i, r.services[i], j)
		}
		seen[k] = i
	}
	for i := range r.Outcomes {
		if o := &r.Outcomes[i]; int(o.svc) >= len(r.services) {
			return fmt.Errorf("simq: check service: outcome %d points at entry %d of a %d-entry table", i, o.svc, len(r.services))
		}
	}
	return nil
}

func (r *Result) checkClass() error {
	seen := map[classPair]int{}
	for i, c := range r.classes {
		j, ok := seen[c]
		if head := i < len(r.models); ok || int(c.model) >= len(r.models) || head && int(c.model) != i || head != (c.class == "") {
			return fmt.Errorf("simq: check class: entry %d, %+v, repeats entry %d, names no model, or is out of place beside %d models", i, c, j, len(r.models))
		}
		seen[c] = i
	}
	if len(r.classes) < len(r.models) {
		return fmt.Errorf("simq: check class: %d entries for %d models", len(r.classes), len(r.models))
	}
	for i := range r.Outcomes {
		if o := &r.Outcomes[i]; int(o.class) >= len(r.classes) {
			return fmt.Errorf("simq: check class: outcome %d points at entry %d of a %d-entry table", i, o.class, len(r.classes))
		}
	}
	return nil
}

func (r *Result) checkColumns() error {
	if n := len(r.Outcomes); r.idOff != nil && len(r.idOff) != n || r.minAcc != nil && len(r.minAcc) != n {
		return fmt.Errorf("simq: check columns: %d outcomes, but the ID column has %d slots and the floor column %d (0 while nil)", n, len(r.idOff), len(r.minAcc))
	}
	return nil
}

func (r *Result) checkAside() error {
	flagged := 0
	for i := range r.Outcomes {
		if r.Outcomes[i].flags&flagAside == 0 {
			continue
		}
		flagged++
		if _, ok := r.aside[i]; !ok {
			return fmt.Errorf("simq: check aside: outcome %d is flagged, but its instants are not set aside", i)
		}
	}
	if flagged != len(r.aside) {
		return fmt.Errorf("simq: check aside: %d instants set aside for %d flagged outcomes", len(r.aside), flagged)
	}
	return nil
}
