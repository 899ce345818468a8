package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"sushi/internal/server"
)

// testSpecs is a made-up two-model fleet: the generator needs no real
// deployment.
func testSpecs() []modelSpec {
	a := modelSpec{Name: "resnet50", Acc: []float64{76.4, 77.7, 78.6, 79.4}, Names: []string{"A", "B", "C", "D"},
		RowMS: []float64{8.5, 12, 16.1, 16.9}, FastestMS: 8.5, SlowestMS: 16.9}
	b := modelSpec{Name: "mobilenetv3", Acc: []float64{75.9, 77.1, 80.1}, Names: []string{"A", "B", "C"},
		RowMS: []float64{1.49, 1.83, 5.63}, FastestMS: 1.49, SlowestMS: 5.63}
	for _, m := range []*modelSpec{&a, &b} {
		m.LatLoMS, m.LatHiMS = 1.05*m.FastestMS, 1.5*m.SlowestMS
	}
	return []modelSpec{a, b}
}

func TestSameSeedSameStream(t *testing.T) {
	specs := testSpecs()
	for _, w := range []*httpWorkload{&httpSingle, &httpBatchMT} {
		small := *w
		small.poolQueries = 4 * batchLines
		_, one := small.generate(7, specs)
		_, again := small.generate(7, specs)
		_, other := small.generate(8, specs)
		if len(one) != len(again) {
			t.Fatalf("%s: %d bodies, then %d", w.name, len(one), len(again))
		}
		for i := range one {
			if !bytes.Equal(one[i], again[i]) {
				t.Fatalf("%s: body %d differs between two runs of seed 7", w.name, i)
			}
		}
		if streamDigest(one) != streamDigest(again) {
			t.Errorf("%s: same seed, different stream digest", w.name)
		}
		if streamDigest(one) == streamDigest(other) {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", w.name)
		}
	}
}

func TestClassesMix(t *testing.T) {
	m := testSpecs()[1]
	classes := classTable(m)
	if len(classes) != classesPerMix {
		t.Fatalf("%d classes, want %d", len(classes), classesPerMix)
	}
	distinct := map[genQuery]bool{}
	for _, c := range classes {
		distinct[c] = true
	}
	if len(distinct) != classesPerMix {
		t.Errorf("only %d distinct classes", len(distinct))
	}
	// Every frontier row is the slowest one some budget admits, so a
	// latency-bound scheduler serves every row.
	budgets := classBudgets(m)
	if len(budgets) != classLatLevels {
		t.Fatalf("%d budgets, want %d", len(budgets), classLatLevels)
	}
	for i, row := range m.RowMS {
		hit := false
		for _, b := range budgets {
			if b >= row && (i+1 == len(m.RowMS) || b < m.RowMS[i+1]) {
				hit = true
			}
		}
		if !hit {
			t.Errorf("no budget selects frontier row %d (%.2f ms): %v", i, row, budgets)
		}
	}
	if hi := budgets[len(budgets)-1]; hi != m.LatHiMS {
		t.Errorf("largest budget %v, want 1.5x the slowest row %v", hi, m.LatHiMS)
	}
	// The seeded draw only ever yields those classes.
	for _, q := range genClasses(3, m, 500) {
		if !distinct[q] {
			t.Fatalf("drew %+v, not one of the classes", q)
		}
	}
}

func TestContinuousMixNeverRepeats(t *testing.T) {
	specs := testSpecs()
	seen := map[[2]float64]bool{}
	models, pols := map[string]bool{}, map[string]bool{}
	for _, q := range genContinuous(5, specs, 20000) {
		k := [2]float64{q.MinAcc, q.MaxLatMS}
		if seen[k] {
			t.Fatalf("constraint pair %v drawn twice", k)
		}
		seen[k] = true
		models[q.Model], pols[q.Policy] = true, true
	}
	if len(models) != 2 || len(pols) != 3 {
		t.Errorf("drew %d models and %d policies, want 2 and 3", len(models), len(pols))
	}
}

// The server must decode a generated line into exactly the floats the
// generator drew (strict decoding: unknown fields are errors there).
func TestBodyRoundTrips(t *testing.T) {
	specs := testSpecs()
	qs := append(genContinuous(9, specs, 300), genClasses(9, modelSpec{Acc: specs[1].Acc, RowMS: specs[1].RowMS,
		SlowestMS: specs[1].SlowestMS, LatHiMS: specs[1].LatHiMS}, 50)...)
	for _, q := range qs {
		dec := json.NewDecoder(bytes.NewReader(q.appendJSON(nil)))
		dec.DisallowUnknownFields()
		var req server.ServeRequest
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("%s: %v", q.appendJSON(nil), err)
		}
		if req.Model != q.Model || req.MinAccuracy != q.MinAcc || req.MaxLatencyMS != q.MaxLatMS || req.Policy != q.Policy {
			t.Fatalf("%+v decoded as %+v", q, req)
		}
		sq := q.schedQuery(4)
		if sq.MaxLatency != q.MaxLatMS*1e-3 || (sq.Policy == nil) != (q.Policy == "") {
			t.Fatalf("%+v became scheduler query %+v", q, sq)
		}
	}
}

func TestCheckReply(t *testing.T) {
	specs := testSpecs()
	idx := specIndex(specs)
	q := genQuery{Model: "mobilenetv3", MinAcc: 77, MaxLatMS: 2}
	good := server.ServeResponse{Model: "mobilenetv3", SubNet: "B", Accuracy: 77.1, LatencyMS: 1.83,
		Feasible: true, LatencyMet: true, AccuracyMet: true, HitRatio: 0.4}
	if msg := checkReply(&good, q, idx); msg != "" {
		t.Errorf("consistent reply rejected: %s", msg)
	}
	for name, mutate := range map[string]func(*server.ServeResponse){
		"unknown subnet":         func(r *server.ServeResponse) { r.SubNet = "Z" },
		"wrong model":            func(r *server.ServeResponse) { r.Model = "resnet50" },
		"accuracy off frontier":  func(r *server.ServeResponse) { r.Accuracy = 77.2 },
		"accuracy_met lies":      func(r *server.ServeResponse) { r.AccuracyMet = false },
		"latency_met lies":       func(r *server.ServeResponse) { r.LatencyMet = false },
		"missed budget unmarked": func(r *server.ServeResponse) { r.LatencyMS = 2.5 },
		"hit ratio out of range": func(r *server.ServeResponse) { r.HitRatio = 1.5 },
	} {
		r := good
		mutate(&r)
		if msg := checkReply(&r, q, idx); msg == "" {
			t.Errorf("%s: accepted", name)
		}
	}
	// A whole NDJSON body: a missing line fails the lines it lost.
	var body bytes.Buffer
	json.NewEncoder(&body).Encode(good)
	seen := newReplySeen()
	if failed, _ := checkBody(body.Bytes(), []genQuery{q, q, q}, idx, seen); failed != 2 {
		t.Errorf("short body failed %d lines, want 2", failed)
	}
	if !seen.rows[rowKey{"mobilenetv3", "B"}] || seen.sloMet != 1 {
		t.Errorf("reply evidence not recorded: %+v", seen)
	}
}
