package workload

import (
	"fmt"
	"sort"
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

// Stream implements ArrivalProcess: the lazy superposition of the
// component streams, merged in time order with ties breaking toward the
// lower component index — the same order Labeled produces, so the k-th draw
// equals Times(n, seed)[k] for any n > k (as long as no finite
// component exhausts early). Model labels are discarded; multi-tenant
// callers want Labeled.
func (m Mix) Stream(seed int64) (ArrivalStream, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	streams := make([]ArrivalStream, len(m.Components))
	next := make([]float64, len(m.Components))
	live := make([]bool, len(m.Components))
	for i, c := range m.Components {
		st, err := c.Process.Stream(componentSeed(seed, i))
		if err != nil {
			return nil, fmt.Errorf("workload: mix component %d (%q): %w", i, c.Model, err)
		}
		streams[i] = st
		next[i], live[i] = st()
	}
	return func() (float64, bool) {
		best := -1
		for i := range streams {
			if live[i] && (best < 0 || next[i] < next[best]) {
				best = i
			}
		}
		if best < 0 {
			return 0, false
		}
		t := next[best]
		next[best], live[best] = streams[best]()
		return t, true
	}, nil
}

// Labeled draws the first n arrivals of the superposed mix together
// with the model label of each arrival, both aligned by index. Ties in
// arrival time break toward the lower component index, so the merge is
// deterministic.
func (m Mix) Labeled(n int, seed int64) ([]float64, []string, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("workload: non-positive count %d", n)
	}
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	type labelled struct {
		t    float64
		comp int
	}
	all := make([]labelled, 0, n*len(m.Components))
	for i, c := range m.Components {
		// Each component draws n arrivals: the union then always holds at
		// least n, whatever the rate imbalance.
		ts, err := c.Process.Times(n, componentSeed(seed, i))
		if err != nil {
			return nil, nil, fmt.Errorf("workload: mix component %d (%q): %w", i, c.Model, err)
		}
		for _, t := range ts {
			all = append(all, labelled{t, i})
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].t != all[b].t {
			return all[a].t < all[b].t
		}
		return all[a].comp < all[b].comp
	})
	times := make([]float64, n)
	models := make([]string, n)
	for i := 0; i < n; i++ {
		times[i] = all[i].t
		models[i] = m.Components[all[i].comp].Model
	}
	return times, models, nil
}
