package accel

import (
	"fmt"

	"sushi/internal/supernet"
)

// Report aggregates one SubNet inference — or one micro-batch of Batch
// same-SubNet inferences — on the simulator: the Fig. 10 critical-path
// breakdown, traffic and energy accounting. For a batch, weight traffic
// (WeightsOffChip/WeightsOnChip and the weight byte counts) is charged
// ONCE — the whole point of SubGraph-Stationary batching: every member
// reads the same scheduled SubNet's weights, so the PB hit or DRAM
// fetch amortizes — while Compute, IActOffChip and OActOffChip (and the
// activation bytes) scale per item.
type Report struct {
	// SubNet and Accel identify the run.
	SubNet, Accel string
	// Batch is the number of same-SubNet queries served together (1 for
	// a plain Run).
	Batch int
	// Layers holds the per-layer decomposition (batch-scaled, so the
	// per-layer Totals still sum to Total).
	Layers []LayerLatency
	// Compute, IActOffChip, WeightsOffChip, WeightsOnChip, OActOffChip
	// are the summed critical-path components (they add up to Total).
	Compute, IActOffChip, WeightsOffChip, WeightsOnChip, OActOffChip float64
	// WeightBytes is the SubNet's total weight footprint; HitBytes the
	// portion served by the Persistent Buffer; DistinctBytes the portion
	// fetched from DRAM. All three are charged once per batch.
	WeightBytes, HitBytes, DistinctBytes int64
	// OffChipBytes and OnChipBytes are total traffic per class (weights
	// once per batch, activations per item).
	OffChipBytes, OnChipBytes int64
	// OffChipEnergyJ and OnChipEnergyJ follow the paper's
	// accesses x energy-per-access model (§5.4.3).
	OffChipEnergyJ, OnChipEnergyJ float64
}

// Total returns the end-to-end serving latency in seconds — for a batch,
// the time from flush to the shared completion of every member.
func (r *Report) Total() float64 {
	return r.Compute + r.IActOffChip + r.WeightsOffChip + r.WeightsOnChip + r.OActOffChip
}

// PerItem returns the latency components that scale with batch size:
// compute plus visible activation traffic, per batch member. Total ==
// weights components + Batch x PerItem (up to float rounding).
func (r *Report) PerItem() float64 {
	if r.Batch <= 1 {
		return r.Compute + r.IActOffChip + r.OActOffChip
	}
	return (r.Compute + r.IActOffChip + r.OActOffChip) / float64(r.Batch)
}

// Simulator is a SushiAccel instance: a hardware configuration plus the
// mutable Persistent Buffer state (the cached SubGraph). It is not safe
// for concurrent use; SUSHI serves queries sequentially per accelerator.
type Simulator struct {
	cfg    Config
	cached *supernet.SubGraph // nil when PB absent or empty
	// swaps counts cache-state updates; swapBytes the DRAM traffic they
	// caused (cache fills come from off-chip).
	swaps     int
	swapBytes int64
}

// NewSimulator validates cfg and returns a simulator with an empty PB.
func NewSimulator(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{cfg: cfg}, nil
}

// Config returns the hardware configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Cached returns the currently cached SubGraph (nil if none).
func (s *Simulator) Cached() *supernet.SubGraph { return s.cached }

// Swaps returns how many cache updates were enacted and the total DRAM
// bytes they moved.
func (s *Simulator) Swaps() (int, int64) { return s.swaps, s.swapBytes }

// FillBytes returns the DRAM traffic (bytes) an immediate SetCached(g)
// would cost: the weight bytes of g's cells not already resident in the
// Persistent Buffer (all of g on a cold cache, 0 for nil). The single
// definition of incremental fill, shared by the simulator's own swap
// accounting and the serving layer's swap-latency / re-cache charges.
func (s *Simulator) FillBytes(g *supernet.SubGraph) int64 {
	if g == nil {
		return 0
	}
	if s.cached != nil {
		return g.Bytes() - g.IntersectBytes(s.cached)
	}
	return g.Bytes()
}

// SetCached enacts a SubGraph-caching control decision on a private copy
// of g. It fails if the configuration has no Persistent Buffer or the
// SubGraph exceeds its capacity. Passing nil clears the cache.
func (s *Simulator) SetCached(g *supernet.SubGraph) error {
	if g != nil {
		g = g.Clone()
	}
	return s.SetCachedShared(g)
}

// SetCachedShared is SetCached without the defensive Clone: the
// simulator aliases g directly, so the caller must guarantee g is never
// mutated afterward (latency-table cache columns are immutable after
// build).
func (s *Simulator) SetCachedShared(g *supernet.SubGraph) error {
	if g == nil {
		s.cached = nil
		return nil
	}
	return s.Install(g, g.Bytes(), s.FillBytes(g))
}

// Install is the one place a SubGraph enters the Persistent Buffer: it
// aliases g (as SetCachedShared does) given g's footprint and its
// incremental fill over the current cache state — bytes == g.Bytes() and
// fill == s.FillBytes(g), which the serving layer reads from its tables
// instead of re-walking the cell list on every swap. It fails if the
// configuration has no Persistent Buffer or g exceeds its capacity.
// Fetching the newly cached cells not already resident costs DRAM
// traffic; this is why SushiSched updates the cache only every Q queries
// (Appendix A.1).
func (s *Simulator) Install(g *supernet.SubGraph, bytes, fill int64) error {
	if !s.cfg.HasPB() {
		return fmt.Errorf("accel %s: no Persistent Buffer configured", s.cfg.Name)
	}
	if bytes > s.cfg.PBBytes {
		return fmt.Errorf("accel %s: SubGraph %q (%d B) exceeds PB capacity (%d B)",
			s.cfg.Name, g.Name(), bytes, s.cfg.PBBytes)
	}
	s.cached = g
	s.swaps++
	s.swapBytes += fill
	return nil
}

// Run simulates serving one query with SubNet sn given the current cache
// state and returns the full report. The cache state is not modified.
func (s *Simulator) Run(sn *supernet.SubNet) (*Report, error) {
	return s.run(sn, 1, nil)
}

// ServeBatchInto simulates serving a micro-batch of n same-SubNet
// queries back to back given the current cache state, writing the
// report into rep: the SubNet's weights are brought to the array once —
// Persistent-Buffer hits and DRAM fetches alike — and every member pays
// only its own compute and activation traffic on top.
// WeightsOffChip/WeightsOnChip (and HitBytes/DistinctBytes and their
// energy) are therefore charged once per batch, while Compute,
// IActOffChip and OActOffChip scale by n. rep is fully overwritten,
// reusing its Layers backing array, so a hot loop with a scratch report
// (the serving layer's memoized-pass misses) allocates nothing; n == 1
// is exactly Run. The cache state is not modified.
func (s *Simulator) ServeBatchInto(rep *Report, sn *supernet.SubNet, n int) error {
	if n <= 0 {
		return fmt.Errorf("accel %s: non-positive batch size %d", s.cfg.Name, n)
	}
	return s.runInto(rep, sn, n, nil)
}

// RunLayers simulates only the layers selected by keep (e.g. the 3x3
// convolutions used in the paper's board evaluation, §5.4-5.5).
func (s *Simulator) RunLayers(sn *supernet.SubNet, keep func(i int) bool) (*Report, error) {
	return s.run(sn, 1, keep)
}

// run is the shared core of Run and RunLayers: the layer
// loop with batch scaling applied per layer, so the per-layer
// decomposition still sums to the batch's Total.
func (s *Simulator) run(sn *supernet.SubNet, n int, keep func(i int) bool) (*Report, error) {
	rep := &Report{}
	if err := s.runInto(rep, sn, n, keep); err != nil {
		return nil, err
	}
	return rep, nil
}

// runInto is run writing into a caller-owned report, recycling its
// Layers capacity.
func (s *Simulator) runInto(rep *Report, sn *supernet.SubNet, n int, keep func(i int) bool) error {
	if sn == nil || sn.Model == nil {
		return fmt.Errorf("accel %s: nil SubNet", s.cfg.Name)
	}
	*rep = Report{SubNet: sn.Name, Accel: s.cfg.Name, Batch: n, Layers: rep.Layers[:0]}
	for i := range sn.Model.Layers {
		if keep != nil && !keep(i) {
			continue
		}
		l := &sn.Model.Layers[i]
		var hit int64
		if s.cached != nil && l.BlockID >= 0 {
			hit = sn.Graph.LayerHitBytes(l.BlockID, s.cached)
		}
		ll := layerLatency(&s.cfg, l, hit)
		if n > 1 {
			// Per-item components scale with the batch; the weight
			// components (and weight bytes) stay batch-stationary.
			fn := float64(n)
			ll.Compute *= fn
			ll.IActOffChip *= fn
			ll.OActOffChip *= fn
			ll.IActBytes *= int64(n)
			ll.OActBytes *= int64(n)
		}
		rep.Layers = append(rep.Layers, ll)
		rep.Compute += ll.Compute
		rep.IActOffChip += ll.IActOffChip
		rep.WeightsOffChip += ll.WeightsOffChip
		rep.WeightsOnChip += ll.WeightsOnChip
		rep.OActOffChip += ll.OActOffChip
		rep.WeightBytes += l.WeightBytes()
		rep.HitBytes += ll.HitBytes
		rep.DistinctBytes += ll.DistinctBytes
		rep.OffChipBytes += ll.DistinctBytes + ll.IActBytes + ll.OActBytes
		// Every operand consumed by the array moves through on-chip
		// buffers once (weights via PB/DB, iActs via SB/LB, oActs via OB).
		rep.OnChipBytes += l.WeightBytes() + ll.IActBytes + ll.OActBytes
	}
	rep.OffChipEnergyJ = float64(rep.OffChipBytes) * s.cfg.OffChipPJPerByte * 1e-12
	rep.OnChipEnergyJ = float64(rep.OnChipBytes) * s.cfg.OnChipPJPerByte * 1e-12
	return nil
}
