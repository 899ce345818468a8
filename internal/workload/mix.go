package workload

import (
	"fmt"
	"strings"
)

// MixComponent is one model's arrival stream inside a Mix: a label and
// the process that generates it.
type MixComponent struct {
	// Model labels every arrival this component contributes (the model
	// id of a multi-tenant deployment).
	Model string
	// Process generates the component's arrival instants.
	Process ArrivalProcess
}

// Mix superposes per-model arrival processes into one merged stream —
// the multi-tenant workload combinator: a diurnal MobileNetV3 stream
// interleaved with a bursty ResNet50 stream is ONE Mix. The merge is
// the superposition of the component processes: every component draws
// its own seeded stream (a distinct seed is derived per component, so
// components stay independent and the whole Mix is deterministic given
// one seed), the draws are merged in time order, and the first n
// arrivals of the union survive — components with higher instantaneous
// rates naturally contribute more of the stream, exactly as independent
// tenants sharing a fleet would.
type Mix struct {
	Components []MixComponent
}

// Name implements ArrivalProcess.
func (m Mix) Name() string {
	parts := make([]string, len(m.Components))
	for i, c := range m.Components {
		parts[i] = fmt.Sprintf("%s:%s", c.Model, c.Process.Name())
	}
	return "mix(" + strings.Join(parts, ",") + ")"
}

// Validate rejects empty or incomplete mixes.
func (m Mix) Validate() error {
	if len(m.Components) == 0 {
		return fmt.Errorf("workload: empty mix")
	}
	for i, c := range m.Components {
		if c.Process == nil {
			return fmt.Errorf("workload: mix component %d (%q) has no process", i, c.Model)
		}
	}
	return nil
}

// componentSeed derives the i-th component's seed from the mix seed.
// SplitMix64-style odd-constant spread keeps the per-component streams
// decorrelated while staying a pure function of (seed, i).
func componentSeed(seed int64, i int) int64 {
	s := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	s ^= s >> 30
	s *= 0xBF58476D1CE4E5B9
	s ^= s >> 27
	// Keep the seed non-negative: rand.NewSource accepts any int64, but
	// non-negative seeds read better in traces.
	return int64(s >> 1)
}

// Times implements ArrivalProcess: the merged arrival instants, model
// labels discarded. Multi-tenant callers want Labeled.
func (m Mix) Times(n int, seed int64) ([]float64, error) {
	times, _, err := m.Labeled(n, seed)
	return times, err
}

// merge is the lazy superposition behind Mix and Population: each pop
// yields the earliest pending arrival of its streams, ties going to the
// lower stream index, and advances that stream.
type merge struct {
	streams []ArrivalStream
	next    []float64
	live    []bool
}

// newMerge primes every stream with its first draw.
func newMerge(streams []ArrivalStream) *merge {
	m := &merge{streams: streams, next: make([]float64, len(streams)), live: make([]bool, len(streams))}
	for i, st := range streams {
		m.next[i], m.live[i] = st()
	}
	return m
}

// pop returns the earliest pending arrival and the index of the stream
// it came from; ok is false once every stream is exhausted.
func (m *merge) pop() (i int, t float64, ok bool) {
	i = -1
	for k := range m.streams {
		if m.live[k] && (i < 0 || m.next[k] < m.next[i]) {
			i = k
		}
	}
	if i < 0 {
		return -1, 0, false
	}
	t = m.next[i]
	m.next[i], m.live[i] = m.streams[i]()
	return i, t, true
}

// merged validates the mix and merges its seeded component streams.
func (m Mix) merged(seed int64) (*merge, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	streams := make([]ArrivalStream, len(m.Components))
	for i, c := range m.Components {
		st, err := c.Process.Stream(componentSeed(seed, i))
		if err != nil {
			return nil, fmt.Errorf("workload: mix component %d (%q): %w", i, c.Model, err)
		}
		streams[i] = st
	}
	return newMerge(streams), nil
}

// Stream implements ArrivalProcess: the lazy superposition of the
// component streams, in the order Labeled produces, so the k-th draw
// equals Times(n, seed)[k] for any n > k. Model labels are discarded;
// multi-tenant callers want Labeled.
func (m Mix) Stream(seed int64) (ArrivalStream, error) {
	mg, err := m.merged(seed)
	if err != nil {
		return nil, err
	}
	return func() (float64, bool) {
		_, t, ok := mg.pop()
		return t, ok
	}, nil
}

// Labeled draws the first n arrivals of the superposed mix together
// with the model label of each arrival, both aligned by index. Ties in
// arrival time break toward the lower component index, so the merge is
// deterministic. A finite component (a trace) that runs out early only
// stops contributing: the call fails only when the union of all
// components holds fewer than n arrivals.
func (m Mix) Labeled(n int, seed int64) ([]float64, []string, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("workload: non-positive count %d", n)
	}
	mg, err := m.merged(seed)
	if err != nil {
		return nil, nil, err
	}
	times := make([]float64, n)
	models := make([]string, n)
	for k := range times {
		i, t, ok := mg.pop()
		if !ok {
			return nil, nil, fmt.Errorf("workload: stream exhausted after %d of %d arrivals", k, n)
		}
		times[k], models[k] = t, m.Components[i].Model
	}
	return times, models, nil
}
