// Package workload generates the annotated query streams SUSHI serves:
// sequences of (accuracy, latency) constraint pairs. The paper's
// motivating applications operate under dynamically variable deployment
// conditions (§1) — variable traffic, battery levels, scene complexity —
// so besides the uniform random streams used in §5.6-5.7 the package
// provides phased, bursty and drifting generators for the example
// applications. All generators are deterministic given a seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"sushi/internal/sched"
)

// Range is a closed interval for constraint sampling. Accuracy ranges
// are in top-1 percent (A_t), latency ranges in seconds (L_t) — the
// units of sched.Query. The zero value [0, 0] always samples 0: an
// unconstrained accuracy floor, but the TIGHTEST possible latency
// budget for scheduling (no SubNet serves in <= 0 s; only budget
// debiting and the engine's drop path treat a non-positive MaxLatency
// as "no budget"), so leave the latency range real.
type Range struct {
	Lo, Hi float64
}

// sample draws uniformly from the range.
func (r Range) sample(rng *rand.Rand) float64 {
	return r.Lo + rng.Float64()*(r.Hi-r.Lo)
}

// Validate reports an inverted or non-finite range.
func (r Range) Validate() error {
	if math.IsNaN(r.Lo) || math.IsNaN(r.Hi) || math.IsInf(r.Lo, 0) || math.IsInf(r.Hi, 0) || r.Lo > r.Hi {
		return fmt.Errorf("workload: invalid range [%g, %g]", r.Lo, r.Hi)
	}
	return nil
}

// Uniform draws n independent queries with constraints uniform in the
// given ranges (acc in top-1 percent, lat in seconds) — the random
// query stream of Fig. 15/16. Deterministic given the seed.
func Uniform(n int, acc, lat Range, seed int64) ([]sched.Query, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: non-positive count %d", n)
	}
	if err := acc.Validate(); err != nil {
		return nil, err
	}
	if err := lat.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]sched.Query, n)
	for i := range out {
		out[i] = sched.Query{
			ID:          i,
			MinAccuracy: acc.sample(rng),
			MaxLatency:  lat.sample(rng),
		}
	}
	return out, nil
}

// Phase describes one segment of a phased workload (e.g. an autonomous
// vehicle alternating between sparse suburban and dense urban terrain).
type Phase struct {
	// Name labels the phase in traces.
	Name string
	// Queries is the phase length in queries.
	Queries int
	// Acc and Lat are the constraint ranges during the phase (top-1
	// percent, seconds).
	Acc, Lat Range
}

// Phased concatenates phases, cycling until n queries are produced.
// Deterministic given the seed.
func Phased(n int, phases []Phase, seed int64) ([]sched.Query, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: non-positive count %d", n)
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: no phases")
	}
	for i, p := range phases {
		if p.Queries <= 0 {
			return nil, fmt.Errorf("workload: phase %d (%s) has %d queries", i, p.Name, p.Queries)
		}
		if err := p.Acc.Validate(); err != nil {
			return nil, err
		}
		if err := p.Lat.Validate(); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]sched.Query, 0, n)
	pi, inPhase := 0, 0
	for i := 0; i < n; i++ {
		p := phases[pi]
		out = append(out, sched.Query{
			ID:          i,
			MinAccuracy: p.Acc.sample(rng),
			MaxLatency:  p.Lat.sample(rng),
		})
		inPhase++
		if inPhase >= p.Queries {
			inPhase = 0
			pi = (pi + 1) % len(phases)
		}
	}
	return out, nil
}

// Bursty models transient overloads (e.g. ICU triage spikes): during a
// burst the latency budget (seconds) tightens by burstFactor (<1) with
// probability burstProb per query, with bursts lasting burstLen
// queries. Deterministic given the seed.
func Bursty(n int, acc, lat Range, burstProb, burstFactor float64, burstLen int, seed int64) ([]sched.Query, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: non-positive count %d", n)
	}
	if burstProb < 0 || burstProb > 1 {
		return nil, fmt.Errorf("workload: burst probability %g outside [0,1]", burstProb)
	}
	if burstFactor <= 0 || burstFactor > 1 {
		return nil, fmt.Errorf("workload: burst factor %g outside (0,1]", burstFactor)
	}
	if burstLen <= 0 {
		return nil, fmt.Errorf("workload: non-positive burst length %d", burstLen)
	}
	if err := acc.Validate(); err != nil {
		return nil, err
	}
	if err := lat.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]sched.Query, n)
	remaining := 0
	for i := range out {
		if remaining == 0 && rng.Float64() < burstProb {
			remaining = burstLen
		}
		l := lat.sample(rng)
		if remaining > 0 {
			l *= burstFactor
			remaining--
		}
		out[i] = sched.Query{ID: i, MinAccuracy: acc.sample(rng), MaxLatency: l}
	}
	return out, nil
}

// Drifting linearly interpolates the constraint ranges (top-1 percent,
// seconds) from start to end over the stream — e.g. a battery draining
// on an edge device, gradually trading accuracy for latency headroom.
// Deterministic given the seed.
func Drifting(n int, accStart, accEnd, latStart, latEnd Range, seed int64) ([]sched.Query, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: non-positive count %d", n)
	}
	for _, r := range []Range{accStart, accEnd, latStart, latEnd} {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]sched.Query, n)
	for i := range out {
		t := 0.0
		if n > 1 {
			t = float64(i) / float64(n-1)
		}
		acc := Range{
			Lo: accStart.Lo + t*(accEnd.Lo-accStart.Lo),
			Hi: accStart.Hi + t*(accEnd.Hi-accStart.Hi),
		}
		lat := Range{
			Lo: latStart.Lo + t*(latEnd.Lo-latStart.Lo),
			Hi: latStart.Hi + t*(latEnd.Hi-latStart.Hi),
		}
		out[i] = sched.Query{ID: i, MinAccuracy: acc.sample(rng), MaxLatency: lat.sample(rng)}
	}
	return out, nil
}
