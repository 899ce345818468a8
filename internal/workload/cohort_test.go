package workload

import (
	"fmt"
	"math"
	"testing"
)

// TestWeibullShapeOnePoissonIdentity pins the exactness claim in the
// Weibull doc: shape 1 reproduces Poisson's draw sequence bit for bit
// (both consume one ExpFloat64 per arrival, divided by Rate).
func TestWeibullShapeOnePoissonIdentity(t *testing.T) {
	p, err := (Poisson{Rate: 77}).Times(2000, 13)
	if err != nil {
		t.Fatal(err)
	}
	w, err := (Weibull{Rate: 77, Shape: 1}).Times(2000, 13)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p {
		if p[i] != w[i] {
			t.Fatalf("weibull(1) diverges from poisson at %d: %g vs %g", i, w[i], p[i])
		}
	}
}

// TestSingleCohortPopulationPoissonIdentity pins the inert-layer
// guarantee: a one-cohort Population passes the seed straight through,
// so its arrivals equal plain Poisson bit for bit — with or without
// mark distributions (marks draw from a separate RNG).
func TestSingleCohortPopulationPoissonIdentity(t *testing.T) {
	p, err := (Poisson{Rate: 150}).Times(2000, 29)
	if err != nil {
		t.Fatal(err)
	}
	for _, pop := range []Population{
		{Cohorts: []Cohort{{Rate: 150}}},
		{Cohorts: []Cohort{{Rate: 150, SLOClass: "gold",
			Budget:   Empirical{Values: []float64{5e-3, 10e-3}},
			Accuracy: Empirical{Values: []float64{70, 75}, Weights: []float64{1, 3}},
		}}},
	} {
		got, err := pop.Times(2000, 29)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p {
			if got[i] != p[i] {
				t.Fatalf("single-cohort population diverges from poisson at %d: %g vs %g", i, got[i], p[i])
			}
		}
	}
}

// TestGammaShapeSemantics checks the dispersion axis: at fixed mean
// rate, shape < 1 clumps (higher inter-arrival CV than Poisson), shape
// > 1 regularizes.
func TestGammaShapeSemantics(t *testing.T) {
	cv := func(p ArrivalProcess) float64 {
		arr, err := p.Times(5000, 3)
		if err != nil {
			t.Fatal(err)
		}
		var gaps []float64
		prev := 0.0
		for _, a := range arr {
			gaps = append(gaps, a-prev)
			prev = a
		}
		var mean float64
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		var v float64
		for _, g := range gaps {
			v += (g - mean) * (g - mean)
		}
		return math.Sqrt(v/float64(len(gaps))) / mean
	}
	bursty := cv(Gamma{Rate: 100, Shape: 0.3})
	regular := cv(Gamma{Rate: 100, Shape: 5})
	if !(bursty > 1.3) {
		t.Errorf("shape 0.3 CV = %.2f, want clearly over-dispersed (> 1.3)", bursty)
	}
	if !(regular < 0.7) {
		t.Errorf("shape 5 CV = %.2f, want clearly under-dispersed (< 0.7)", regular)
	}
	for _, bad := range []ArrivalProcess{
		Gamma{Rate: 0, Shape: 1}, Gamma{Rate: 10, Shape: 0}, Gamma{Rate: 10, Shape: math.Inf(1)},
		Weibull{Rate: -1, Shape: 1}, Weibull{Rate: 10, Shape: 0},
	} {
		if _, err := bad.Stream(1); err == nil {
			t.Errorf("invalid %+v accepted", bad)
		}
	}
}

// TestEmpiricalDistribution covers the mark distribution: zero-value
// inertness, weighted draws landing on the support with roughly the
// configured frequencies, and validation of malformed shapes.
func TestEmpiricalDistribution(t *testing.T) {
	var zero Empirical
	if !zero.Zero() {
		t.Fatal("zero value must be unset")
	}
	if err := zero.Validate(); err != nil {
		t.Fatal(err)
	}
	e := Empirical{Values: []float64{1, 2, 4}, Weights: []float64{1, 1, 2}}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	// Draw through a single-cohort population (the only draw path): the
	// empirical mix of budgets must track the weights.
	pop := Population{Cohorts: []Cohort{{Rate: 100, Budget: e}}}
	tr, err := pop.Record(4000, 5)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := tr.Queries(4000)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[float64]int{}
	for i, q := range qs {
		if q.ID != i {
			t.Fatalf("query %d has ID %d", i, q.ID)
		}
		counts[q.MaxLatency]++
	}
	for _, v := range e.Values {
		if counts[v] == 0 {
			t.Errorf("support point %g never drawn", v)
		}
	}
	if frac := float64(counts[4]) / 4000; frac < 0.40 || frac > 0.60 {
		t.Errorf("weight-2 point drawn %.0f%% of the time, want ~50%%", frac*100)
	}
	for _, bad := range []Empirical{
		{Weights: []float64{1}},
		{Values: []float64{math.NaN()}},
		{Values: []float64{1}, Weights: []float64{1, 2}},
		{Values: []float64{1}, Weights: []float64{-1}},
		{Values: []float64{1, 2}, Weights: []float64{0, 0}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid %+v accepted", bad)
		}
	}
}

// TestPopulationLabels checks the labelled stream: every arrival
// carries its producing cohort's model/class, cohort indexes are in
// range, and the merged instants equal the unlabeled Stream bit for
// bit.
func TestPopulationLabels(t *testing.T) {
	pop := Population{Cohorts: []Cohort{
		{Rate: 50, SLOClass: "gold", Model: "resnet50"},
		{Rate: 50, SLOClass: "batch", Model: "mobilenetv3", InterArrival: IAGamma, Shape: 0.5},
	}}
	ls, err := pop.Labeled(17)
	if err != nil {
		t.Fatal(err)
	}
	times, err := pop.Times(1000, 17)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for i := 0; i < 1000; i++ {
		a, ok := ls()
		if !ok {
			t.Fatalf("labelled stream exhausted at %d", i)
		}
		if a.T != times[i] {
			t.Fatalf("labelled instant %d = %g, Times gave %g", i, a.T, times[i])
		}
		if a.Cohort < 0 || a.Cohort >= len(pop.Cohorts) {
			t.Fatalf("arrival %d cohort %d out of range", i, a.Cohort)
		}
		c := pop.Cohorts[a.Cohort]
		if a.Query.Class != c.SLOClass || a.Query.Model != c.Model {
			t.Fatalf("arrival %d labels (%q, %q) mismatch cohort %d (%q, %q)",
				i, a.Query.Model, a.Query.Class, a.Cohort, c.Model, c.SLOClass)
		}
		seen[a.Cohort]++
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Errorf("equal-rate cohorts contributed %d / %d arrivals; both must appear", seen[0], seen[1])
	}
	if err := (Population{}).Validate(); err == nil {
		t.Error("empty population accepted")
	}
	if _, err := (Population{Cohorts: []Cohort{{Rate: -1}}}).Labeled(1); err == nil {
		t.Error("negative-rate cohort accepted")
	}
}

// TestZipfRates checks the skewed decomposition: rates sum to the
// total, decrease monotonically, and follow the configured power law.
func TestZipfRates(t *testing.T) {
	rates := ZipfRates(50, 200, 1.2)
	if len(rates) != 50 {
		t.Fatalf("got %d rates", len(rates))
	}
	sum := 0.0
	for i, r := range rates {
		if !(r > 0) {
			t.Fatalf("rate %d = %g", i, r)
		}
		if i > 0 && r > rates[i-1] {
			t.Fatalf("rate %d increases: %g after %g", i, r, rates[i-1])
		}
		sum += r
	}
	if math.Abs(sum-200) > 1e-9 {
		t.Errorf("rates sum to %g, want 200", sum)
	}
	if got, want := rates[0]/rates[1], math.Pow(2, 1.2); math.Abs(got-want) > 1e-9 {
		t.Errorf("rank-1/rank-2 ratio %g, want %g", got, want)
	}
	if ZipfRates(0, 100, 1) != nil {
		t.Error("n=0 must yield nil")
	}
}

// TestParsePopulation covers the -cohorts grammar end to end.
func TestParsePopulation(t *testing.T) {
	pop, err := ParsePopulation(
		"rate=40,class=gold,budget=20,acc=70|75;n=3,rate=2,ia=gamma,shape=0.4,class=batch,model=resnet50,budget=80|120")
	if err != nil {
		t.Fatal(err)
	}
	if len(pop.Cohorts) != 4 {
		t.Fatalf("got %d cohorts, want 4 (1 + n=3)", len(pop.Cohorts))
	}
	g := pop.Cohorts[0]
	if g.Rate != 40 || g.SLOClass != "gold" || g.InterArrival != IAExp {
		t.Errorf("gold cohort mismatch: %+v", g)
	}
	if len(g.Budget.Values) != 1 || g.Budget.Values[0] != 20e-3 {
		t.Errorf("budget must parse as milliseconds: %+v", g.Budget)
	}
	if len(g.Accuracy.Values) != 2 || g.Accuracy.Values[1] != 75 {
		t.Errorf("accuracy mismatch: %+v", g.Accuracy)
	}
	b := pop.Cohorts[1]
	if b.Rate != 2 || b.InterArrival != IAGamma || b.Shape != 0.4 || b.Model != "resnet50" {
		t.Errorf("batch cohort mismatch: %+v", b)
	}
	for _, bad := range []string{
		"",                         // no cohorts
		"rate=0",                   // non-positive rate
		"class=gold",               // missing rate
		"rate=1,ia=pareto",         // unknown law
		"rate=1,n=0",               // non-positive replicate
		"rate=1,budget=fast",       // unparsable number
		"rate=1,burst",             // not k=v
		"rate=1,color=blue",        // unknown field
		"rate=1,shape=-2,ia=gamma", // invalid shape
		"n=4097,rate=1",            // past the cohort cap
		"rate=1,budget=8|-5",       // negative budget
		"rate=1,acc=70|500",        // accuracy floor past 100
	} {
		if _, err := ParsePopulation(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// FuzzParsePopulation is the -cohorts grammar's adversarial-input gate
// (the spec arrives over POST /v1/simulate): parsing never panics, and
// an accepted population passes Validate, holds at most
// maxParsedCohorts cohorts and parses from the same spec to an equal
// value. Seeds live in testdata/fuzz/FuzzParsePopulation, named for
// what each holds.
func FuzzParsePopulation(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		pop, err := ParsePopulation(spec)
		if err != nil {
			if len(pop.Cohorts) != 0 {
				t.Fatalf("rejected spec returned %d cohorts", len(pop.Cohorts))
			}
			return
		}
		if err := pop.Validate(); err != nil {
			t.Fatalf("accepted population fails Validate: %v", err)
		}
		if n := len(pop.Cohorts); n > maxParsedCohorts {
			t.Fatalf("accepted population holds %d cohorts, cap %d", n, maxParsedCohorts)
		}
		again, err := ParsePopulation(spec)
		if err != nil {
			t.Fatalf("accepted spec rejected on a second parse: %v", err)
		}
		// Printed, not DeepEqual: an ignored shape= may be NaN.
		if a, b := fmt.Sprintf("%#v", pop), fmt.Sprintf("%#v", again); a != b {
			t.Fatalf("two parses of one spec differ:\n%s\n%s", a, b)
		}
	})
}
