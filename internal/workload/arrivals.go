package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// ArrivalProcess generates open-loop arrival times for the simq engine:
// non-decreasing, non-negative instants (seconds since stream start),
// deterministic given the seed. The paper's premise is dynamically
// variable deployment conditions (§1); the concrete processes model the
// regimes its motivating applications face — steady Poisson traffic,
// on-off bursts, diurnal rate swings, and replayed production traces.
type ArrivalProcess interface {
	// Name labels the process in experiment tables and traces.
	Name() string
	// Times draws the first n arrival instants.
	Times(n int, seed int64) ([]float64, error)
	// Stream validates the parameters once and returns a lazy drawer
	// that consumes the seed's RNG in exactly the order Times does, so
	// the k-th draw equals Times(n, seed)[k] bit for bit. The simq
	// engine streams arrivals through it instead of materializing them
	// up front (Times is a thin collector over Stream).
	Stream(seed int64) (ArrivalStream, error)
}

// ArrivalStream draws one arrival instant at a time, in non-decreasing
// order; ok is false when the stream is exhausted (generative processes
// never exhaust, trace replay does).
type ArrivalStream func() (t float64, ok bool)

// collect materializes the first n draws of a stream — the shared Times
// implementation.
func collect(n int, stream ArrivalStream, err error) ([]float64, error) {
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("workload: non-positive count %d", n)
	}
	out := make([]float64, 0, n)
	for len(out) < n {
		t, ok := stream()
		if !ok {
			return nil, fmt.Errorf("workload: stream exhausted after %d of %d arrivals", len(out), n)
		}
		out = append(out, t)
	}
	return out, nil
}

// Poisson is the memoryless constant-rate arrival process, the standard
// open-loop load generator for serving experiments.
type Poisson struct {
	// Rate is the arrival intensity in queries/second.
	Rate float64
}

// Name implements ArrivalProcess.
func (p Poisson) Name() string { return "poisson" }

// Times implements ArrivalProcess.
func (p Poisson) Times(n int, seed int64) ([]float64, error) {
	stream, err := p.Stream(seed)
	return collect(n, stream, err)
}

// Stream implements ArrivalProcess.
func (p Poisson) Stream(seed int64) (ArrivalStream, error) {
	if !(p.Rate > 0) {
		return nil, fmt.Errorf("workload: non-positive rate %g", p.Rate)
	}
	rng := rand.New(rand.NewSource(seed))
	t := 0.0
	return func() (float64, bool) {
		t += rng.ExpFloat64() / p.Rate
		return t, true
	}, nil
}

// OnOff is a two-state Markov-modulated Poisson process: the stream
// alternates between an "on" (burst) and an "off" (quiet) state with
// exponentially distributed sojourn times, drawing arrivals at the
// state's rate — the transient-overload regime of §1 (ICU triage
// spikes, scene-complexity bursts). The process starts in the on state.
type OnOff struct {
	// OnRate and OffRate are the arrival intensities (queries/second) in
	// each state. OffRate may be zero (fully silent gaps).
	OnRate, OffRate float64
	// MeanOn and MeanOff are the mean state sojourn times in seconds.
	MeanOn, MeanOff float64
	// StartOff starts the process in the quiet state instead of the
	// burst state. Two OnOff streams with matched sojourns and opposite
	// StartOff are anti-correlated in expectation — the multi-tenant
	// scenario where one model bursts while the other idles. The zero
	// value (start on) is the pre-existing behaviour.
	StartOff bool
}

// Name implements ArrivalProcess.
func (p OnOff) Name() string { return "onoff" }

// Times implements ArrivalProcess.
func (p OnOff) Times(n int, seed int64) ([]float64, error) {
	stream, err := p.Stream(seed)
	return collect(n, stream, err)
}

// Stream implements ArrivalProcess.
func (p OnOff) Stream(seed int64) (ArrivalStream, error) {
	if !(p.OnRate > 0) {
		return nil, fmt.Errorf("workload: non-positive on-rate %g", p.OnRate)
	}
	if p.OffRate < 0 || math.IsNaN(p.OffRate) {
		return nil, fmt.Errorf("workload: negative off-rate %g", p.OffRate)
	}
	if !(p.MeanOn > 0) || !(p.MeanOff > 0) {
		return nil, fmt.Errorf("workload: non-positive sojourn means (%g, %g)", p.MeanOn, p.MeanOff)
	}
	// A draw that falls past a state boundary costs one sojourn: a cycle
	// expecting under 1/256 arrivals would spin on every draw.
	if perCycle := p.OnRate*p.MeanOn + p.OffRate*p.MeanOff; !(perCycle*256 >= 1) {
		return nil, fmt.Errorf("workload: an on/off cycle expects %g arrivals, under 1/256", perCycle)
	}
	rng := rand.New(rand.NewSource(seed))
	t := 0.0
	on := !p.StartOff
	stateEnd := p.sojourn(rng, on)
	return func() (float64, bool) {
		for {
			rate := p.OnRate
			if !on {
				rate = p.OffRate
			}
			if rate <= 0 {
				// Silent state: jump to its end.
				t = stateEnd
				on = !on
				stateEnd = t + p.sojourn(rng, on)
				continue
			}
			next := t + rng.ExpFloat64()/rate
			if next > stateEnd {
				// The candidate falls past the state boundary; by
				// memorylessness we may discard it and redraw in the next
				// state.
				t = stateEnd
				on = !on
				stateEnd = t + p.sojourn(rng, on)
				continue
			}
			t = next
			return t, true
		}
	}, nil
}

func (p OnOff) sojourn(rng *rand.Rand, on bool) float64 {
	if on {
		return rng.ExpFloat64() * p.MeanOn
	}
	return rng.ExpFloat64() * p.MeanOff
}

// Diurnal is a non-homogeneous Poisson process with sinusoidal rate
// λ(t) = BaseRate·(1 + Amplitude·sin(2πt/Period + Phase)) — the
// day/night load swing of a user-facing service, compressed to
// simulation scale. It is generated by Lewis-Shedler thinning against
// λmax = BaseRate·(1+A), which stays exact and deterministic per seed.
type Diurnal struct {
	// BaseRate is the mean intensity in queries/second.
	BaseRate float64
	// Amplitude in [0, 1] scales the swing around the mean.
	Amplitude float64
	// Period is the cycle length in seconds.
	Period float64
	// Phase offsets the swing in radians (zero keeps the historical
	// sin(2πt/P) shape). Two streams with matched period and phases π
	// apart are exactly anti-correlated in rate — one model peaks while
	// the other troughs, the multi-tenant consolidation scenario.
	Phase float64
}

// Name implements ArrivalProcess.
func (p Diurnal) Name() string { return "diurnal" }

// Times implements ArrivalProcess.
func (p Diurnal) Times(n int, seed int64) ([]float64, error) {
	stream, err := p.Stream(seed)
	return collect(n, stream, err)
}

// Stream implements ArrivalProcess.
func (p Diurnal) Stream(seed int64) (ArrivalStream, error) {
	if !(p.BaseRate > 0) {
		return nil, fmt.Errorf("workload: non-positive base rate %g", p.BaseRate)
	}
	if p.Amplitude < 0 || p.Amplitude > 1 || math.IsNaN(p.Amplitude) {
		return nil, fmt.Errorf("workload: amplitude %g outside [0, 1]", p.Amplitude)
	}
	if !(p.Period > 0) {
		return nil, fmt.Errorf("workload: non-positive period %g", p.Period)
	}
	if math.IsNaN(p.Phase) || math.IsInf(p.Phase, 0) {
		return nil, fmt.Errorf("workload: non-finite phase %g", p.Phase)
	}
	lambdaMax := p.BaseRate * (1 + p.Amplitude)
	if math.IsInf(lambdaMax, 0) {
		return nil, fmt.Errorf("workload: peak rate %g overflows", lambdaMax)
	}
	rng := rand.New(rand.NewSource(seed))
	t := 0.0
	return func() (float64, bool) {
		for {
			t += rng.ExpFloat64() / lambdaMax
			if math.IsInf(t, 1) {
				return t, true // no candidate past +Inf is ever accepted
			}
			lambda := p.BaseRate * (1 + p.Amplitude*math.Sin(2*math.Pi*t/p.Period+p.Phase))
			if rng.Float64()*lambdaMax <= lambda {
				return t, true
			}
		}
	}, nil
}
