package simq

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"sushi/internal/sched"
)

// TestCheckBites proves Result.Check is evidence: each seeded fault — a
// mutation of a good run's Result, the kind of slip an engine bug would
// leave behind — turns exactly the one rule it breaks red.
func TestCheckBites(t *testing.T) {
	// Every query carries an override (the replicas' own policy), so the
	// records carry policy bits: a drop's echo keeps them, and a pass's
	// members share them.
	pol := sched.StrictLatency
	good := batchRunPolicy(t, Batching{MaxBatch: 4, Window: 0.01}, 160, 3, &pol)

	// What the faults need from the fixture: a drop that waited and a
	// pass of several members, both with derived instants, and a
	// replica's pass with a later pass behind it.
	dropped, member, earlier := -1, -1, -1
	lastStart := map[uint16]float64{}
	for i, o := range good.Outcomes {
		lastStart[o.Replica] = max(lastStart[o.Replica], good.Timed(i).Start)
	}
	for i, o := range good.Outcomes {
		switch {
		case o.flags&flagAside != 0:
		case o.Dropped && o.E2ELatency > 0:
			dropped = i
		case o.Batch > 1:
			member = i
		}
		if !o.Dropped && good.Timed(i).Start < lastStart[o.Replica] && earlier < 0 {
			earlier = i
		}
	}
	if dropped < 0 || member < 0 || earlier < 0 || good.idOff != nil || good.minAcc != nil || len(good.classes) != 1 {
		t.Fatalf("fixture lacks a drop that waited (%d) or a multi-member pass (%d) with derived instants, or a followed pass (%d), or has a column or a class", dropped, member, earlier)
	}
	if want := uint8(pol+1) << policyShift; good.Outcomes[dropped].flags&policyMask != want || good.Outcomes[member].flags&policyMask != want {
		t.Fatalf("fixture's drop and member carry policy bits %#x and %#x, want %#x", good.Outcomes[dropped].flags&policyMask, good.Outcomes[member].flags&policyMask, want)
	}

	// repoint gives record i a service tuple of its own: edit's change to
	// a copy of its entry, appended. Other records may share the entry.
	repoint := func(r *Result, i int, edit func(s *Service)) {
		s := r.services[r.Outcomes[i].svc]
		edit(&s)
		r.services = append(r.services, s)
		r.Outcomes[i].svc = uint32(len(r.services) - 1)
	}
	for _, f := range []struct {
		rule  string
		fault func(r *Result)
	}{
		{"conservation", func(r *Result) { r.Served++ }},
		{"conservation", func(r *Result) { r.Outcomes[dropped].Reason = ReasonNone }},
		// An E2E latency below zero derives an arrival after the finish.
		{"order", func(r *Result) { r.Outcomes[member].E2ELatency = -1 }},
		{"flush", func(r *Result) { r.Outcomes[member].Row++ }},
		{"flush", func(r *Result) { r.Outcomes[member].Batch-- }},
		// A second model, with its unclassed pair, for one member alone.
		{"flush", func(r *Result) {
			r.models = append(slices.Clip(r.models), "other")
			r.classes = append(slices.Clip(r.classes), classPair{model: 1})
			r.Outcomes[member].class = 1
		}},
		// Clearing a drop's policy bits leaves a valid record (0 reads "no
		// override"); a pass member's must match the rest of its pass.
		{"flush", func(r *Result) { r.Outcomes[member].flags &^= policyMask }},
		{"overlap", func(r *Result) { repoint(r, earlier, func(s *Service) { s.RecacheSec += 1e3 }) }},
		{"drop", func(r *Result) { r.Outcomes[dropped].svc = 1 }},
		{"drop", func(r *Result) { r.Outcomes[dropped].Batch = 1 }},
		{"drop", func(r *Result) { r.Outcomes[dropped].flags |= flagFeasible }},
		{"drop", func(r *Result) { // starts at its arrival, before its finish
			arrival, _ := r.times(dropped)
			r.Outcomes[dropped].flags |= flagAside
			r.aside[dropped] = instants{arrival, arrival}
		}},
		{"service", func(r *Result) { r.Outcomes[member].svc = uint32(len(r.services)) }},
		{"service", func(r *Result) { repoint(r, member, func(*Service) {}) }},
		{"class", func(r *Result) { r.Outcomes[member].class = uint16(len(r.classes)) }},
		// The fixture numbers its queries by index and sets no floor, so
		// both columns are nil; a column one slot short is the fault.
		{"columns", func(r *Result) { r.idOff = make([]int64, len(r.Outcomes)-1) }},
		{"columns", func(r *Result) { r.minAcc = make([]float64, len(r.Outcomes)-1) }},
		// A drop derives the instants it would set aside, so the flag and
		// the map can each go astray without moving an instant.
		{"aside", func(r *Result) { r.Outcomes[dropped].flags |= flagAside }},
		{"aside", func(r *Result) {
			arrival, start := r.times(dropped)
			r.aside[dropped] = instants{arrival, start}
		}},
	} {
		bad := *good
		bad.Outcomes = append([]Outcome(nil), good.Outcomes...)
		bad.services = append([]Service(nil), good.services...)
		bad.aside = maps.Clone(good.aside)
		if bad.aside == nil {
			bad.aside = map[int]instants{}
		}
		f.fault(&bad)
		err := bad.Check()
		if err == nil {
			t.Errorf("a %s fault went unnoticed", f.rule)
			continue
		}
		red := err.(interface{ Unwrap() []error }).Unwrap()
		if len(red) != 1 || !strings.HasPrefix(red[0].Error(), "simq: check "+f.rule+":") {
			t.Errorf("a %s fault turned %d rules red, want that one alone:\n%v", f.rule, len(red), err)
		}
	}
}
