package workload

import (
	"math"
	"testing"
)

// propertyCases is the table behind the universal arrival-process
// property harness: every generator the package exports, including the
// cohort laws (Gamma over- and under-dispersed, Weibull heavy-tailed
// and regularized) and their Population superpositions. meanRate is
// the nominal aggregate intensity the empirical rate must track; tol
// is its relative tolerance (heavier tails need more room at fixed n).
var propertyCases = []struct {
	name     string
	proc     ArrivalProcess
	meanRate float64
	tol      float64
}{
	{"poisson", Poisson{Rate: 100}, 100, 0.10},
	{"onoff", OnOff{OnRate: 500, OffRate: 20, MeanOn: 0.2, MeanOff: 0.8}, 116, 0.30},
	{"diurnal", Diurnal{BaseRate: 200, Amplitude: 0.8, Period: 2}, 200, 0.15},
	{"gamma-bursty", Gamma{Rate: 100, Shape: 0.4}, 100, 0.15},
	{"gamma-regular", Gamma{Rate: 100, Shape: 4}, 100, 0.10},
	{"weibull-heavy", Weibull{Rate: 100, Shape: 0.6}, 100, 0.15},
	{"weibull-exponential", Weibull{Rate: 100, Shape: 1}, 100, 0.10},
	{"weibull-regular", Weibull{Rate: 100, Shape: 2}, 100, 0.10},
	{"mix", Mix{Components: []MixComponent{
		{Model: "a", Process: Poisson{Rate: 60}},
		{Model: "b", Process: Diurnal{BaseRate: 40, Amplitude: 0.5, Period: 2}},
	}}, 100, 0.15},
	{"population-single", Population{Cohorts: []Cohort{{Rate: 100}}}, 100, 0.10},
	{"population-skewed", Population{Cohorts: append(
		[]Cohort{
			{Rate: 60, InterArrival: IAGamma, Shape: 0.3, SLOClass: "gold"},
			{Rate: 25, InterArrival: IAWeibull, Shape: 0.6, SLOClass: "silver"},
		},
		func() []Cohort {
			tail := make([]Cohort, 15)
			for i := range tail {
				tail[i] = Cohort{Rate: 1, SLOClass: "batch"}
			}
			return tail
		}()...)}, 100, 0.15},
}

// TestArrivalProcessProperties drives every generator through the
// universal contract: exactly n finite, non-negative, non-decreasing
// instants; bit-identical per seed and sensitive to the seed; lazy
// Stream draws equal to the materialized Times prefix bit for bit; and
// an empirical mean rate inside the nominal tolerance (the horizon
// bound — n arrivals cannot land arbitrarily early or late).
func TestArrivalProcessProperties(t *testing.T) {
	const n = 3000
	for _, tc := range propertyCases {
		t.Run(tc.name, func(t *testing.T) {
			arr, err := tc.proc.Times(n, 7)
			if err != nil {
				t.Fatal(err)
			}
			checkStream(t, arr, n)
			for i, a := range arr {
				if math.IsInf(a, 0) {
					t.Fatalf("arrival %d is infinite", i)
				}
			}
			checkDeterministic(t, tc.proc, n)

			// Lazy/materialized equivalence: the k-th Stream draw must be
			// Times(n)[k] bit for bit — the contract that lets the simq
			// process engine consume any generator without materializing.
			st, err := tc.proc.Stream(7)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				v, ok := st()
				if !ok {
					t.Fatalf("stream exhausted at %d of %d", i, n)
				}
				if v != arr[i] {
					t.Fatalf("stream draw %d = %g, Times gave %g", i, v, arr[i])
				}
			}

			// Horizon / mean-rate bound: n arrivals at nominal rate R span
			// roughly n/R seconds.
			span := arr[n-1]
			if span <= 0 {
				t.Fatalf("degenerate span %g", span)
			}
			rate := float64(n) / span
			if rate < tc.meanRate*(1-tc.tol) || rate > tc.meanRate*(1+tc.tol) {
				t.Errorf("empirical rate %.1f outside %.1f +/- %.0f%%", rate, tc.meanRate, tc.tol*100)
			}
		})
	}
}

// TestPropertyHarnessCoversTraceV2 runs the deterministic-replay half
// of the contract for TraceV2, which has no nominal rate (it replays
// whatever was recorded) and ignores its seed by design.
func TestPropertyHarnessCoversTraceV2(t *testing.T) {
	pop := Population{Cohorts: []Cohort{
		{Rate: 80, SLOClass: "gold", Budget: Empirical{Values: []float64{10e-3, 20e-3}}},
		{Rate: 20, InterArrival: IAGamma, Shape: 0.5, SLOClass: "batch"},
	}}
	tr, err := pop.Record(500, 11)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := tr.Times(500, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, arr, 500)
	// Seed-independent: replay ignores the seed parameter.
	arr2, err := tr.Times(500, 999)
	if err != nil {
		t.Fatal(err)
	}
	for i := range arr {
		if arr[i] != arr2[i] {
			t.Fatalf("trace replay varies with seed at %d", i)
		}
	}
	// Stream prefix equivalence and bounded exhaustion: exactly the
	// recorded arrivals, then done.
	st, err := tr.Stream(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		v, ok := st()
		if !ok || v != arr[i] {
			t.Fatalf("stream draw %d = (%g, %t), want (%g, true)", i, v, ok, arr[i])
		}
	}
	if _, ok := st(); ok {
		t.Error("trace stream did not exhaust at its end")
	}
	// The recorded population stream must itself match the population's
	// unlabeled Times bit for bit (marks never perturb arrivals).
	direct, err := pop.Times(500, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if direct[i] != arr[i] {
			t.Fatalf("recorded arrival %d = %g, population gave %g", i, arr[i], direct[i])
		}
	}
}
