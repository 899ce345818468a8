package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"sushi/internal/sched"
)

// Gamma is a renewal arrival process with Gamma-distributed
// inter-arrival times of mean 1/Rate and shape k: k < 1 is burstier
// than Poisson (CV = 1/sqrt(k) > 1, arrivals clump), k > 1 is more
// regular, approaching a deterministic ticker as k grows. It models a
// single client whose request spacing is over- or under-dispersed —
// the per-client burstiness axis of heterogeneous serving traffic.
type Gamma struct {
	// Rate is the mean arrival intensity in queries/second.
	Rate float64
	// Shape is the Gamma shape k (> 0). 1 is exponential spacing
	// (Poisson statistics, though not Poisson's exact draw sequence).
	Shape float64
}

// Name implements ArrivalProcess.
func (p Gamma) Name() string { return "gamma" }

// Times implements ArrivalProcess.
func (p Gamma) Times(n int, seed int64) ([]float64, error) {
	stream, err := p.Stream(seed)
	return collect(n, stream, err)
}

// Stream implements ArrivalProcess.
func (p Gamma) Stream(seed int64) (ArrivalStream, error) {
	if !(p.Rate > 0) {
		return nil, fmt.Errorf("workload: non-positive rate %g", p.Rate)
	}
	if !(p.Shape > 0) || math.IsInf(p.Shape, 0) {
		return nil, fmt.Errorf("workload: non-positive gamma shape %g", p.Shape)
	}
	rng := rand.New(rand.NewSource(seed))
	// Gamma(k, theta) has mean k*theta; theta = 1/(Rate*k) keeps the
	// mean inter-arrival at 1/Rate for every shape.
	scale := 1 / (p.Rate * p.Shape)
	t := 0.0
	return func() (float64, bool) {
		t += gammaVariate(rng, p.Shape) * scale
		return t, true
	}, nil
}

// gammaVariate draws Gamma(shape, 1) by Marsaglia-Tsang squeeze
// rejection; shapes below 1 are boosted through Gamma(shape+1) times
// U^(1/shape), which stays exact.
func gammaVariate(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		return gammaVariate(rng, shape+1) * math.Pow(rng.Float64(), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Weibull is a renewal arrival process with Weibull-distributed
// inter-arrival times of mean 1/Rate and shape k: k < 1 is
// heavy-tailed (long silences punctuated by clumps), k > 1
// regularizes. Shape exactly 1 reproduces Poisson's draw sequence bit
// for bit (both consume one ExpFloat64 per arrival, divided by Rate).
type Weibull struct {
	// Rate is the mean arrival intensity in queries/second.
	Rate float64
	// Shape is the Weibull shape k (> 0).
	Shape float64
}

// Name implements ArrivalProcess.
func (p Weibull) Name() string { return "weibull" }

// Times implements ArrivalProcess.
func (p Weibull) Times(n int, seed int64) ([]float64, error) {
	stream, err := p.Stream(seed)
	return collect(n, stream, err)
}

// Stream implements ArrivalProcess.
func (p Weibull) Stream(seed int64) (ArrivalStream, error) {
	if !(p.Rate > 0) {
		return nil, fmt.Errorf("workload: non-positive rate %g", p.Rate)
	}
	if !(p.Shape > 0) || math.IsInf(p.Shape, 0) {
		return nil, fmt.Errorf("workload: non-positive weibull shape %g", p.Shape)
	}
	rng := rand.New(rand.NewSource(seed))
	t := 0.0
	if p.Shape == 1 {
		// Exponential case, kept on Poisson's exact arithmetic so a
		// shape-1 Weibull is bit-identical to Poisson{Rate} per seed.
		return func() (float64, bool) {
			t += rng.ExpFloat64() / p.Rate
			return t, true
		}, nil
	}
	// X = lambda * E^(1/k) with E ~ Exp(1) is Weibull(k, lambda);
	// lambda = 1/(Rate*Gamma(1+1/k)) pins the mean at 1/Rate.
	invShape := 1 / p.Shape
	lambda := 1 / (p.Rate * math.Gamma(1+invShape))
	return func() (float64, bool) {
		t += lambda * math.Pow(rng.ExpFloat64(), invShape)
		return t, true
	}, nil
}

// Empirical is a weighted discrete distribution over observed values —
// the empirical budget/accuracy marks a client cohort attaches to its
// queries. The zero value means "no constraint": it draws 0 without
// consuming randomness, so unmarked cohorts stay bit-identical to
// streams that never heard of marks.
type Empirical struct {
	// Values are the support points (seconds for latency budgets, top-1
	// percent for accuracy floors).
	Values []float64
	// Weights are the relative draw weights, aligned with Values; nil
	// means uniform.
	Weights []float64
}

// Zero reports whether the distribution is unset.
func (e Empirical) Zero() bool { return len(e.Values) == 0 }

// Validate rejects malformed distributions (the zero value is valid).
func (e Empirical) Validate() error {
	if e.Zero() {
		if len(e.Weights) != 0 {
			return fmt.Errorf("workload: empirical weights without values")
		}
		return nil
	}
	for i, v := range e.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload: empirical value %d is non-finite (%g)", i, v)
		}
	}
	if e.Weights == nil {
		return nil
	}
	if len(e.Weights) != len(e.Values) {
		return fmt.Errorf("workload: %d empirical weights for %d values", len(e.Weights), len(e.Values))
	}
	total := 0.0
	for i, w := range e.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return fmt.Errorf("workload: empirical weight %d is invalid (%g)", i, w)
		}
		total += w
	}
	if !(total > 0) {
		return fmt.Errorf("workload: empirical weights sum to %g", total)
	}
	return nil
}

// draw picks one value. A non-zero distribution consumes exactly one
// uniform variate per draw (whatever its size), so mark streams stay
// reproducible as distributions are edited.
func (e Empirical) draw(rng *rand.Rand) float64 {
	if e.Zero() {
		return 0
	}
	u := rng.Float64()
	if e.Weights == nil {
		i := int(u * float64(len(e.Values)))
		if i >= len(e.Values) {
			i = len(e.Values) - 1
		}
		return e.Values[i]
	}
	total := 0.0
	for _, w := range e.Weights {
		total += w
	}
	cum := 0.0
	for i, w := range e.Weights {
		cum += w
		if u*total < cum {
			return e.Values[i]
		}
	}
	return e.Values[len(e.Values)-1]
}

// InterArrival names a Cohort's inter-arrival law.
type InterArrival int

const (
	// IAExp is memoryless exponential spacing — the cohort alone is a
	// Poisson stream. The zero value.
	IAExp InterArrival = iota
	// IAGamma is Gamma-distributed spacing with Cohort.Shape.
	IAGamma
	// IAWeibull is Weibull-distributed spacing with Cohort.Shape.
	IAWeibull
)

// String implements fmt.Stringer.
func (ia InterArrival) String() string {
	switch ia {
	case IAExp:
		return "poisson"
	case IAGamma:
		return "gamma"
	case IAWeibull:
		return "weibull"
	default:
		return fmt.Sprintf("InterArrival(%d)", int(ia))
	}
}

// Cohort is one homogeneous client group of a Population: a mean rate,
// an inter-arrival law (the burstiness axis), empirical budget and
// accuracy marks, and the SLO class + model its queries carry. It is
// the unit of the ServeGen-style decomposition: real traffic is a
// superposition of many such cohorts, not one smooth process.
type Cohort struct {
	// Model is the target model id on multi-tenant fleets ("" resolves
	// to the deployment default).
	Model string
	// SLOClass labels the cohort's queries for per-class accounting
	// ("gold", "batch", ...); empty traffic is unclassed.
	SLOClass string
	// Rate is the cohort's mean arrival intensity in queries/second.
	Rate float64
	// InterArrival picks the spacing law (default IAExp).
	InterArrival InterArrival
	// Shape parameterizes IAGamma/IAWeibull (0 selects 1, the
	// exponential case); ignored by IAExp.
	Shape float64
	// Budget draws each query's latency budget L_t in seconds (the
	// zero distribution leaves queries unconstrained).
	Budget Empirical
	// Accuracy draws each query's accuracy floor A_t in top-1 percent
	// (the zero distribution leaves queries unconstrained).
	Accuracy Empirical
}

// process resolves the cohort's arrival law to an ArrivalProcess.
func (c Cohort) process() (ArrivalProcess, error) {
	shape := c.Shape
	if shape == 0 {
		shape = 1
	}
	switch c.InterArrival {
	case IAExp:
		return Poisson{Rate: c.Rate}, nil
	case IAGamma:
		return Gamma{Rate: c.Rate, Shape: shape}, nil
	case IAWeibull:
		return Weibull{Rate: c.Rate, Shape: shape}, nil
	default:
		return nil, fmt.Errorf("workload: unknown inter-arrival law %v", c.InterArrival)
	}
}

// Validate rejects malformed cohorts.
func (c Cohort) Validate() error {
	if !(c.Rate > 0) || math.IsInf(c.Rate, 0) {
		return fmt.Errorf("workload: non-positive cohort rate %g", c.Rate)
	}
	if _, err := c.process(); err != nil {
		return err
	}
	if c.InterArrival != IAExp && c.Shape != 0 && (!(c.Shape > 0) || math.IsInf(c.Shape, 0)) {
		return fmt.Errorf("workload: invalid cohort shape %g", c.Shape)
	}
	if err := c.Budget.Validate(); err != nil {
		return fmt.Errorf("workload: cohort budget: %w", err)
	}
	if err := c.Accuracy.Validate(); err != nil {
		return fmt.Errorf("workload: cohort accuracy: %w", err)
	}
	for _, v := range c.Budget.Values {
		if v < 0 {
			return fmt.Errorf("workload: negative cohort budget %g", v)
		}
	}
	for _, v := range c.Accuracy.Values {
		if v < 0 || v > 100 {
			return fmt.Errorf("workload: cohort accuracy floor %g outside [0, 100]", v)
		}
	}
	return nil
}

// CohortArrival is one labelled arrival of a Population stream: the
// instant, the index of the cohort that produced it, and the query the
// cohort minted (ID unset — callers sequence it).
type CohortArrival struct {
	T      float64
	Cohort int
	Query  sched.Query
}

// Population superposes N seeded client cohorts into one arrival
// stream — the cohort counterpart of Mix. Every cohort draws its own
// arrival stream under a SplitMix-derived seed (decorrelated but a
// pure function of the population seed) and its own mark stream for
// budget/accuracy draws, so marks never perturb arrival times; the
// merge is time-ordered with ties breaking toward the lower cohort
// index. A single-cohort Population passes the seed straight through
// to its cohort's process, so Population{[]Cohort{{Rate: r}}} is
// bit-identical to Poisson{Rate: r} — the layer is inert when unused.
type Population struct {
	Cohorts []Cohort
}

// Name implements ArrivalProcess.
func (p Population) Name() string {
	return fmt.Sprintf("population(%d)", len(p.Cohorts))
}

// Validate rejects empty or malformed populations.
func (p Population) Validate() error {
	if len(p.Cohorts) == 0 {
		return fmt.Errorf("workload: empty population")
	}
	for i, c := range p.Cohorts {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("workload: population cohort %d: %w", i, err)
		}
	}
	return nil
}

// Times implements ArrivalProcess: the merged arrival instants, cohort
// labels discarded.
func (p Population) Times(n int, seed int64) ([]float64, error) {
	stream, err := p.Stream(seed)
	return collect(n, stream, err)
}

// Stream implements ArrivalProcess: the lazy superposed stream, instants
// only. The underlying merge still advances each cohort's mark stream,
// but marks draw from separate RNGs, so the instants equal Labeled's
// bit for bit.
func (p Population) Stream(seed int64) (ArrivalStream, error) {
	ls, err := p.Labeled(seed)
	if err != nil {
		return nil, err
	}
	return func() (float64, bool) {
		a, ok := ls()
		return a.T, ok
	}, nil
}

// Labeled returns the lazy superposed stream with cohort labels and
// minted queries: each arrival carries the producing cohort's model,
// SLO class, and one budget + one accuracy draw from the cohort's mark
// stream (budget first). Query IDs are left 0 for the caller to
// sequence.
func (p Population) Labeled(seed int64) (func() (CohortArrival, bool), error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.Cohorts)
	streams := make([]ArrivalStream, n)
	marks := make([]*rand.Rand, n)
	for i, c := range p.Cohorts {
		proc, err := c.process()
		if err != nil {
			return nil, fmt.Errorf("workload: population cohort %d: %w", i, err)
		}
		// A lone cohort inherits the population seed unchanged (the
		// inert-layer guarantee); larger populations derive per-cohort
		// seeds exactly as Mix derives component seeds.
		s := seed
		if n > 1 {
			s = componentSeed(seed, i)
		}
		if streams[i], err = proc.Stream(s); err != nil {
			return nil, fmt.Errorf("workload: population cohort %d: %w", i, err)
		}
		marks[i] = rand.New(rand.NewSource(componentSeed(seed, n+i)))
	}
	mg := newMerge(streams)
	return func() (CohortArrival, bool) {
		i, t, ok := mg.pop()
		if !ok {
			return CohortArrival{}, false
		}
		c := &p.Cohorts[i]
		return CohortArrival{
			T:      t,
			Cohort: i,
			Query: sched.Query{
				Model:       c.Model,
				Class:       c.SLOClass,
				MaxLatency:  c.Budget.draw(marks[i]),
				MinAccuracy: c.Accuracy.draw(marks[i]),
			},
		}, true
	}, nil
}

// Record materializes the first n arrivals into a replayable trace v2:
// the population's cohort table plus one record per arrival carrying
// its instant, cohort id, model, SLO class and drawn constraints.
// Replaying the trace reproduces the population's query stream bit for
// bit without re-running the generators.
func (p Population) Record(n int, seed int64) (*TraceV2, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: non-positive count %d", n)
	}
	ls, err := p.Labeled(seed)
	if err != nil {
		return nil, err
	}
	tr := &TraceV2{Seed: seed, Cohorts: make([]CohortLabel, len(p.Cohorts))}
	for i, c := range p.Cohorts {
		tr.Cohorts[i] = CohortLabel{
			Name:  fmt.Sprintf("cohort-%d", i),
			Model: c.Model,
			Class: c.SLOClass,
		}
	}
	tr.Records = make([]TraceV2Record, n)
	for i := 0; i < n; i++ {
		a, ok := ls()
		if !ok {
			return nil, fmt.Errorf("workload: population stream exhausted after %d of %d arrivals", i, n)
		}
		tr.Records[i] = TraceV2Record{
			Arrival:     a.T,
			Cohort:      a.Cohort,
			Model:       a.Query.Model,
			Class:       a.Query.Class,
			MinAccuracy: a.Query.MinAccuracy,
			MaxLatency:  a.Query.MaxLatency,
		}
	}
	return tr, nil
}

// ZipfRates apportions a total rate across n cohorts by a Zipf law
// with exponent s (rate_i proportional to 1/(i+1)^s, normalized to
// total) — the canonical skewed-client decomposition: a few heavy
// hitters and a long tail of light clients, same aggregate load.
func ZipfRates(n int, total, s float64) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	norm := 0.0
	for i := range out {
		out[i] = 1 / math.Pow(float64(i+1), s)
		norm += out[i]
	}
	for i := range out {
		out[i] *= total / norm
	}
	return out
}

// maxParsedCohorts caps the population a spec may describe. A spec is
// outside input, n= replicates a clause for free, and every arrival of
// the superposed stream scans all cohorts, so an unbounded count lets a
// hundred bytes allocate without limit or pin a run; the largest
// population in the tree (the skewed one sushi-bench -record-trace
// captures) holds 100.
const maxParsedCohorts = 4096

// ParsePopulation builds a Population from a compact flag/JSON-free
// spec: semicolon-separated cohort clauses of comma-separated k=v
// fields —
//
//	rate=40,class=gold,budget=20;n=80,rate=2,ia=gamma,shape=0.4,class=batch,budget=80|120
//
// Fields: rate (qps, required), n (replicate the clause into n cohorts
// with independent seeds, default 1), ia (poisson, gamma or weibull),
// shape (Gamma/Weibull shape), class (SLO class label), model (target
// model id), budget (latency budgets in MILLISECONDS, '|'-separated,
// drawn uniformly), acc (accuracy floors in top-1 percent,
// '|'-separated). This is the grammar behind sushi-server -cohorts and
// POST /v1/simulate's "cohorts" field, so a spec may hold at most
// maxParsedCohorts cohorts in total.
func ParsePopulation(spec string) (Population, error) {
	var pop Population
	for ci, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		c := Cohort{}
		count := 1
		for _, field := range strings.Split(clause, ",") {
			field = strings.TrimSpace(field)
			if field == "" {
				continue
			}
			k, v, ok := strings.Cut(field, "=")
			if !ok {
				return Population{}, fmt.Errorf("workload: cohort clause %d: field %q is not k=v", ci, field)
			}
			var err error
			switch k {
			case "n":
				count, err = strconv.Atoi(v)
				if err == nil && count <= 0 {
					err = fmt.Errorf("non-positive replicate count %d", count)
				}
			case "rate":
				c.Rate, err = strconv.ParseFloat(v, 64)
			case "ia":
				switch v {
				case "poisson", "exp":
					c.InterArrival = IAExp
				case "gamma":
					c.InterArrival = IAGamma
				case "weibull":
					c.InterArrival = IAWeibull
				default:
					err = fmt.Errorf("unknown inter-arrival law %q (want poisson, gamma or weibull)", v)
				}
			case "shape":
				c.Shape, err = strconv.ParseFloat(v, 64)
			case "class":
				c.SLOClass = v
			case "model":
				c.Model = v
			case "budget":
				c.Budget, err = parseEmpirical(v, 1e-3)
			case "acc":
				c.Accuracy, err = parseEmpirical(v, 1)
			default:
				err = fmt.Errorf("unknown field %q", k)
			}
			if err != nil {
				return Population{}, fmt.Errorf("workload: cohort clause %d: %s: %v", ci, k, err)
			}
		}
		if count > maxParsedCohorts-len(pop.Cohorts) {
			return Population{}, fmt.Errorf("workload: cohort clause %d: population capped at %d cohorts", ci, maxParsedCohorts)
		}
		for i := 0; i < count; i++ {
			pop.Cohorts = append(pop.Cohorts, c)
		}
	}
	if err := pop.Validate(); err != nil {
		return Population{}, err
	}
	return pop, nil
}

// parseEmpirical parses '|'-separated values into a uniform Empirical,
// scaling each by unit (1e-3 converts flag milliseconds to seconds).
func parseEmpirical(v string, unit float64) (Empirical, error) {
	var e Empirical
	for _, part := range strings.Split(v, "|") {
		x, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return Empirical{}, err
		}
		e.Values = append(e.Values, x*unit)
	}
	return e, nil
}
