package sushi_test

// Trace v2 end-to-end contract (PR 8): recording a cohort population,
// encoding the trace to bytes, decoding it back and replaying the
// decoded queries on a FRESH identical deployment reproduces the live
// simulation bit for bit — across the hardest configuration the stack
// offers (multi-tenant models + an elastic autoscaling fleet). The
// committed goldens pin the whole chain: cohort RNG derivation, the
// wire format, the replay mint and the engine itself.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"sushi"
	"sushi/internal/core"
	"sushi/internal/workload"
)

// tracePopulation targets both fleet models with mixed inter-arrival
// laws and empirical marks — every field the trace format carries.
func tracePopulation() workload.Population {
	return workload.Population{Cohorts: []workload.Cohort{
		{Rate: 150, SLOClass: "gold", Model: string(core.MobileNetV3),
			InterArrival: workload.IAGamma, Shape: 0.35,
			Budget: workload.Empirical{Values: []float64{8e-3, 15e-3}, Weights: []float64{2, 1}}},
		{Rate: 50, SLOClass: "silver", Model: string(core.ResNet50),
			InterArrival: workload.IAWeibull, Shape: 0.8,
			Budget:   workload.Empirical{Values: []float64{60e-3}},
			Accuracy: workload.Empirical{Values: []float64{70, 74}}},
		{Rate: 50, SLOClass: "batch", Model: string(core.MobileNetV3),
			Budget: workload.Empirical{Values: []float64{40e-3}}},
	}}
}

// traceDeploy builds the multi-tenant ELASTIC fleet the round trip
// runs on; each call is fresh (runs mutate cache state). Live
// population runs take core's lazy SimulatePopulation path.
func traceDeploy(t *testing.T) *core.ClusterDeployment {
	t.Helper()
	dep, err := core.DeployCluster(core.DeployOptions{}, core.ClusterOptions{
		Models:   []core.Workload{core.ResNet50, core.MobileNetV3},
		Replicas: 6,
		Router:   core.RouterLeastLoaded,
		Autoscale: &core.AutoscaleOptions{
			Min: 2, Max: 6, Policy: "utilization", Interval: 0.05,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func traceSimOpts() sushi.SimOptions {
	return sushi.SimOptions{
		QueueCap:  4,
		Admission: sushi.AdmitReject,
		LoadAware: true,
		Drop:      true,
	}
}

// TestTraceV2RecordReplayBitExact is the headline assertion: live
// cohort run == decode(encode(record)) replayed, as a full
// reflect.DeepEqual over the Result, plus committed sha256 goldens
// over the outcome stream and the summary.
func TestTraceV2RecordReplayBitExact(t *testing.T) {
	const (
		n    = 500
		seed = int64(41)
	)
	const (
		goldenOutcomes = "743563ecf98048a85309629c3ac00070366e55761a5042e2ab17e81ceb04aecb"
		goldenSummary  = "905ed850eb1ddf769585080ab519fb69c6642c31bf62e79926bb5cef9f28bb18"
	)
	pop := tracePopulation()

	live, err := traceDeploy(t).SimulatePopulation(n, pop, seed, traceSimOpts())
	if err != nil {
		t.Fatal(err)
	}

	// Record the SAME population/seed, push it through the wire format.
	tr, err := pop.Record(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Seed != seed || len(tr.Records) != n || len(tr.Cohorts) != len(pop.Cohorts) {
		t.Fatalf("trace header mismatch: seed=%d records=%d cohorts=%d",
			tr.Seed, len(tr.Records), len(tr.Cohorts))
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := sushi.DecodeTraceV2(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, tr) {
		t.Fatal("decode(encode(trace)) is not deep-equal to the recorded trace")
	}

	// Replay the decoded trace on a fresh identical deployment.
	qs, err := decoded.Queries(n)
	if err != nil {
		t.Fatal(err)
	}
	times, err := decoded.Times(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	tqs := make([]sushi.TimedQuery, n)
	for i := range tqs {
		tqs[i] = sushi.TimedQuery{Query: qs[i], Arrival: times[i]}
	}
	replay, err := traceDeploy(t).Simulate(tqs, traceSimOpts())
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(replay, live) {
		t.Errorf("replayed Result is not deep-equal to the live run:\n  live   served=%d dropped=%d scaleups=%d\n  replay served=%d dropped=%d scaleups=%d",
			live.Served, live.Dropped, live.ScaleUps,
			replay.Served, replay.Dropped, replay.ScaleUps)
	}
	if got := outcomeDigest(t, replay); got != goldenOutcomes {
		t.Errorf("replay outcome digest diverged:\n  got    %s\n  golden %s", got, goldenOutcomes)
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", replay.Summary)))
	if got := fmt.Sprintf("%x", sum); got != goldenSummary {
		t.Errorf("replay summary digest diverged:\n  got    %s\n  golden %s", got, goldenSummary)
	}
	// An elastic run that never scales is not exercising the elastic
	// path — guard the scenario itself.
	if live.ScaleUps+live.ScaleDowns == 0 {
		t.Error("elastic round-trip scenario produced no scaling events")
	}
}

// TestTraceV2TypedErrorsPublic re-states the decoder's error contract
// at the public face: foreign versions and truncated files read through
// sushi.DecodeTraceV2 surface as workload's typed errors, usable with
// errors.As.
func TestTraceV2TypedErrorsPublic(t *testing.T) {
	tr, err := tracePopulation().Record(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	versioned := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint16(versioned[8:10], 7)
	_, err = sushi.DecodeTraceV2(bytes.NewReader(versioned))
	var verr *workload.TraceVersionError
	if !errors.As(err, &verr) || verr.Got != 7 {
		t.Errorf("version mismatch: got %v, want *TraceVersionError{Got: 7}", err)
	}

	_, err = sushi.DecodeTraceV2(bytes.NewReader(raw[:len(raw)-3]))
	var derr *workload.TraceDecodeError
	if !errors.As(err, &derr) {
		t.Errorf("truncation: got %v, want *TraceDecodeError", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncation does not wrap io.ErrUnexpectedEOF: %v", err)
	}
}
