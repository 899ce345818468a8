package core

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"sushi/internal/accel"
	"sushi/internal/baseline"
	"sushi/internal/dse"
	"sushi/internal/latencytable"
	"sushi/internal/nn"
	"sushi/internal/roofline"
	"sushi/internal/supernet"
)

// is3x3 selects the 3x3 dense conv layers of a model (§5.4-5.5 evaluate
// these on the boards).
func is3x3(m *nn.Model) func(int) bool {
	return func(i int) bool {
		l := &m.Layers[i]
		return l.Kind == nn.Conv && l.R == 3 && l.S == 3
	}
}

// simulate runs SubNet sn on a fresh SushiAccel of configuration cfg
// whose Persistent Buffer holds g (nil: an empty PB), over the layers
// keep selects (nil: every layer).
func simulate(cfg accel.Config, g *supernet.SubGraph, sn *supernet.SubNet, keep func(int) bool) (*accel.Report, error) {
	sim, err := accel.NewSimulator(cfg)
	if err != nil {
		return nil, err
	}
	if g != nil {
		if err := sim.SetCachedShared(g); err != nil {
			return nil, err
		}
	}
	return sim.RunLayers(sn, keep)
}

// Fig2 regenerates the per-layer arithmetic intensity profile (Fig. 2).
func (s setting) Fig2(w Workload) (*Result, error) {
	super, fr, err := frontierFor(w)
	if err != nil {
		return nil, err
	}
	model, err := roofline.New(s.study)
	if err != nil {
		return nil, err
	}
	prof := model.LayerProfile(fr[len(fr)-1].Model)
	res := &Result{
		Name:   "fig2",
		Title:  fmt.Sprintf("Arithmetic intensity per conv layer — %s (largest SubNet)", super.Kind),
		Header: []string{"layer", "name", "kind", "FLOPs/Byte", "bound"},
	}
	memBound, late, half := 0, 0, len(prof)/2
	for i, p := range prof {
		bound := "compute"
		if p.MemoryBound {
			bound = "MEMORY"
			memBound++
			if i >= half {
				late++
			}
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", p.Index), p.Name, p.Kind.String(), f1(p.Intensity), bound,
		})
	}
	res.Metrics = map[string]float64{
		"memory_bound_rise_pp": 100*float64(late)/float64(len(prof)-half) - 100*float64(memBound-late)/float64(half),
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("machine balance %.1f FLOPs/Byte; %d/%d conv layers memory-bound", model.BalancePoint(), memBound, len(prof)),
		"paper: lower arithmetic intensity in MBV3 and ResNet50's latter layers leads to memory-boundedness")
	return res, nil
}

// Fig3 regenerates the toy example of Fig. 3: the latency of a deep&thin
// vs a wide&shallow SubNet as a function of differently shaped cached
// SubGraphs.
func (s setting) Fig3() (*Result, error) {
	super := supernet.NewOFAResNet50()
	deep, err := super.Instantiate(super.UniformSpec(4, 0, 0, 0))
	if err != nil {
		return nil, err
	}
	deep.Name = "deep&thin"
	wide, err := super.Instantiate(super.UniformSpec(2, 2, 0, 2))
	if err != nil {
		return nil, err
	}
	wide.Name = "wide&shallow"
	cfg := s.board
	// Cached SubGraphs along the "more layers" <-> "more width" axis.
	caches := []*supernet.SubGraph{
		deep.Graph.TruncateToBudget(cfg.PBBytes, latencytable.Priority(super, latencytable.DeepThin)),
		deep.Graph.TruncateToBudget(cfg.PBBytes, latencytable.Priority(super, latencytable.TailFirst)),
		wide.Graph.TruncateToBudget(cfg.PBBytes, latencytable.Priority(super, latencytable.TailFirst)),
		wide.Graph.TruncateToBudget(cfg.PBBytes, latencytable.Priority(super, latencytable.WideShallow)),
	}
	names := []string{"deep/thin-cells", "deep/tail", "wide/tail", "wide/shallow-cells"}
	for i, g := range caches {
		g.SetName(names[i])
	}
	res := &Result{
		Name:   "fig3",
		Title:  "Latency of two SubNets as a function of the cached SubGraph shape",
		Header: append([]string{"served \\ cached"}, names...),
	}
	own, lats := 0.0, make([]float64, len(caches))
	for si, sn := range []*supernet.SubNet{deep, wide} {
		row := []string{sn.Name}
		for gi, g := range caches {
			rep, err := simulate(cfg, g, sn, nil)
			if err != nil {
				return nil, err
			}
			lats[gi] = rep.Total()
			row = append(row, ms(rep.Total())+" ms")
		}
		// deep&thin's own shape is the first column, wide&shallow's the last.
		if slices.Index(lats, slices.Min(lats)) == si*(len(caches)-1) {
			own++
		}
		res.Rows = append(res.Rows, row)
	}
	res.Metrics = map[string]float64{"own_shape_fastest": own}
	res.Notes = append(res.Notes,
		"paper: different cached SubGraphs are optimal for different served SubNets (shape similarity)")
	return res, nil
}

// Fig10 regenerates the latency-breakdown study (Fig. 10): each frontier
// SubNet without PB and with full SGS residency (the paper's "potential"
// reduction), on the roofline-study configuration.
func (s setting) Fig10(w Workload) (*Result, error) {
	_, fr, err := frontierFor(w)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:  "fig10",
		Title: fmt.Sprintf("Latency breakdown w/o PB vs w/ SGS residency — %s", w),
		Header: []string{"SubNet", "acc%", "compute", "iAct", "wOff", "wOn", "oAct",
			"total(ms)", "w/PB(ms)", "save%"},
	}
	lo, hi := math.Inf(1), 0.0
	for _, sn := range fr {
		repBase, err := simulate(s.study.WithoutPB(), nil, sn, nil)
		if err != nil {
			return nil, err
		}
		// Potential SGS: PB sized to the whole SubNet.
		cfg := s.study
		cfg.PBBytes = sn.WeightBytes()
		repSGS, err := simulate(cfg, sn.Graph, sn, nil)
		if err != nil {
			return nil, err
		}
		save := 100 * (1 - repSGS.Total()/repBase.Total())
		if save < lo {
			lo = save
		}
		if save > hi {
			hi = save
		}
		res.Rows = append(res.Rows, []string{
			sn.Name, f2(sn.Accuracy),
			ms(repBase.Compute), ms(repBase.IActOffChip), ms(repBase.WeightsOffChip),
			ms(repBase.WeightsOnChip), ms(repBase.OActOffChip),
			ms(repBase.Total()), ms(repSGS.Total()), f1(save),
		})
	}
	res.Metrics = map[string]float64{"save_min_pct": lo, "save_max_pct": hi}
	res.Notes = append(res.Notes,
		fmt.Sprintf("measured potential reduction %.1f-%.1f%% (paper: %s%%)", lo, hi, published(w, "save_min_pct").band()))
	return res, nil
}

// Fig11 regenerates the roofline shift (Fig. 11): frontier SubNets with
// and without SGS-boosted effective intensity.
func (s setting) Fig11(w Workload) (*Result, error) {
	super, fr, err := frontierFor(w)
	if err != nil {
		return nil, err
	}
	model, err := roofline.New(s.study)
	if err != nil {
		return nil, err
	}
	prio := latencytable.Priority(super, latencytable.TailFirst)
	res := &Result{
		Name:   "fig11",
		Title:  fmt.Sprintf("SGS pushes SubNets toward compute-bound — %s", w),
		Header: []string{"SubNet", "AI", "TFLOPS", "AI+SGS", "TFLOPS+SGS"},
	}
	gain := math.Inf(1)
	for _, sn := range fr {
		cache := sn.Graph.TruncateToBudget(s.study.PBBytes, prio)
		p, err := model.SubNetPoint(sn, cache)
		if err != nil {
			return nil, err
		}
		gain = math.Min(gain, p.IntensitySGS/p.Intensity)
		res.Rows = append(res.Rows, []string{
			p.Name, f1(p.Intensity), f3(p.AttainableTFLOPS), f1(p.IntensitySGS), f3(p.AttainableSGSTFLOPS),
		})
	}
	res.Metrics = map[string]float64{"sgs_intensity_gain_min_x": gain}
	res.Notes = append(res.Notes,
		fmt.Sprintf("machine balance %.1f FLOPs/Byte; SGS raises effective intensity by removing cached weight traffic", model.BalancePoint()))
	return res, nil
}

// Fig12 regenerates the design space exploration (Fig. 12).
func (s setting) Fig12(w Workload) (*Result, error) {
	super, fr, err := frontierFor(w)
	if err != nil {
		return nil, err
	}
	opt := dse.DefaultOptions()
	opt.Base = s.study
	pts, err := dse.Sweep(super, fr, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "fig12",
		Title:  fmt.Sprintf("DSE: latency saving vs PB size, bandwidth, throughput — %s", w),
		Header: []string{"PB(MB)", "BW(GB/s)", "TFLOPS", "base(ms)", "cached(ms)", "save%"},
	}
	// Sweep returns the grid bandwidth-major and PB-minor, with the same
	// PB sizes under every (bandwidth, throughput). A break is a step to
	// the next PB size or throughput, or to the lower bandwidth, that
	// lowers the saving.
	nt := len(opt.Throughputs)
	npb := len(pts) / (len(opt.Bandwidths) * nt)
	res.Metrics = map[string]float64{"pb_breaks": 0, "compute_breaks": 0, "bandwidth_breaks": 0, "save_min_pct": math.Inf(1)}
	for i, p := range pts {
		res.Rows = append(res.Rows, []string{
			mb(p.PBBytes), f1(p.OffChipBW / 1e9), f2(p.PeakFLOPS / 1e12),
			ms(p.BaseLatency), ms(p.CachedLatency), f2(p.TimeSavePct),
		})
		res.Metrics["save_min_pct"] = math.Min(res.Metrics["save_min_pct"], p.TimeSavePct)
		if i%npb+1 < npb && pts[i+1].TimeSavePct < p.TimeSavePct {
			res.Metrics["pb_breaks"]++
		}
		if i/npb%nt+1 < nt && pts[i+npb].TimeSavePct < p.TimeSavePct {
			res.Metrics["compute_breaks"]++
		}
		if j := i + nt*npb; j < len(pts) && pts[j].TimeSavePct > p.TimeSavePct {
			res.Metrics["bandwidth_breaks"]++
		}
	}
	best, err := dse.Best(pts)
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("best: PB %s MB, %.1f GB/s, %.2f TFLOPS -> %.2f%% saving",
			mb(best.PBBytes), best.OffChipBW/1e9, best.PeakFLOPS/1e12, best.TimeSavePct),
		"paper: larger PB / more compute / less bandwidth increase the saving; MobV3 gains less than ResNet50 at scale")
	return res, nil
}

// Fig13a regenerates the real-board latency comparison (Fig. 13a):
// ResNet50 frontier 3x3 conv layers on the CPU and on SushiAccel
// (ZCU104 and Alveo U50, each with and without PB).
func (s setting) Fig13a() (*Result, error) {
	super, fr, err := frontierFor(ResNet50)
	if err != nil {
		return nil, err
	}
	cpu := baseline.IntelI7_10750H()
	prio := latencytable.Priority(super, latencytable.TailFirst)
	shared, err := supernet.SharedGraph(fr)
	if err != nil {
		return nil, err
	}
	type board struct {
		cfg accel.Config
		pb  bool
		// hostSec is the per-query host dispatch cost: the embedded
		// ZCU104 is near-zero-copy, while the datacenter U50 pays PCIe
		// transfers under cluster contention — the reason §5.4.2's
		// scale-up design loses on small SubNets.
		hostSec float64
	}
	boards := []board{
		{s.board.WithoutPB(), false, 0.2e-3},
		{s.board, true, 0.2e-3},
		{s.scaleUp.WithoutPB(), false, 4.0e-3},
		{s.scaleUp, true, 4.0e-3},
	}
	emb, card := s.board.Name, cardName(s.scaleUp)
	res := &Result{
		Name:   "fig13a",
		Title:  "Latency (ms) on ResNet50 3x3 conv layers: CPU vs SushiAccel boards",
		Header: []string{"SubNet", "CPU", emb, emb + "+PB", card, card + "+PB", "speedup(" + emb + "+PB)"},
	}
	var noPB, withPB, u50 []float64
	pbSlowdowns := 0.0
	for _, sn := range fr {
		keep := is3x3(sn.Model)
		cpuT := cpu.LayersLatency(sn.Model, keep)
		row := []string{sn.Name, ms(cpuT)}
		totals := make([]float64, len(boards))
		for bi, b := range boards {
			var g *supernet.SubGraph
			if b.pb {
				g = shared.TruncateToBudget(b.cfg.PBBytes, prio)
			}
			rep, err := simulate(b.cfg, g, sn, keep)
			if err != nil {
				return nil, err
			}
			total := rep.Total() + b.hostSec
			row = append(row, ms(total))
			totals[bi] = total
		}
		// boards[0] and boards[1] are the ZCU104 without and with PB.
		noPB, withPB = append(noPB, cpuT/totals[0]), append(withPB, cpuT/totals[1])
		u50 = append(u50, totals[3]/totals[1])
		if totals[1] > totals[0] || totals[3] > totals[2] {
			pbSlowdowns++
		}
		row = append(row, f2(cpuT/totals[1])+"x")
		res.Rows = append(res.Rows, row)
	}
	res.Metrics = map[string]float64{
		"speedup_nopb_min_x": slices.Min(noPB), "speedup_nopb_max_x": slices.Max(noPB),
		"speedup_min_x": slices.Min(withPB), "speedup_max_x": slices.Max(withPB),
		"u50_vs_zcu104_smallest_x": u50[0], "u50_vs_zcu104_largest_x": u50[len(u50)-1],
		"pb_slowdowns": pbSlowdowns,
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("paper: ZCU104 %sx (w/o PB) and %sx (w/ PB) over CPU; U50 slower on small SubNets due to off-chip contention",
			published("", "speedup_nopb_min_x").band(), published("", "speedup_min_x").band()),
		fmt.Sprintf("board latencies include host dispatch: 0.2 ms (embedded %s) / 4 ms (datacenter %s PCIe under contention)", emb, card))
	return res, nil
}

// cardName is a scale-up card's name without its product family, as
// §5.4.2 writes it ("AlveoU50" reads "U50").
func cardName(c accel.Config) string { return strings.TrimPrefix(c.Name, "Alveo") }

// Fig13b regenerates the energy comparison (Fig. 13b): off-chip and
// on-chip data-access energy per frontier SubNet, without and with PB.
func (s setting) Fig13b(w Workload) (*Result, error) {
	super, fr, err := frontierFor(w)
	if err != nil {
		return nil, err
	}
	prio := latencytable.Priority(super, latencytable.TailFirst)
	if w == ResNet50 {
		// The board experiment runs only the 3x3 conv layers (§5.4), so
		// the useful cache contents are the 3x3 cells; keep the tail
		// order but fetch those cells first.
		var conv3, rest []int
		for _, id := range prio {
			l := &super.Layers[super.Cells[id].Layer]
			if l.Kind == nn.Conv && l.RMax == 3 && l.SMax == 3 {
				conv3 = append(conv3, id)
			} else {
				rest = append(rest, id)
			}
		}
		prio = append(conv3, rest...)
	}
	shared, err := supernet.SharedGraph(fr)
	if err != nil {
		return nil, err
	}
	cfgPB := s.board
	cfgNo := s.board.WithoutPB()
	res := &Result{
		Name:   "fig13b",
		Title:  fmt.Sprintf("Off-chip/on-chip access energy (mJ) w/o vs w/ PB — %s", w),
		Header: []string{"SubNet", "off(noPB)", "on(noPB)", "off(PB)", "on(PB)", "off-save%"},
	}
	lo, hi := math.Inf(1), 0.0
	for _, sn := range fr {
		var keep func(int) bool
		if w == ResNet50 {
			// §5.4 evaluates the 3x3 conv layers on the boards.
			keep = is3x3(sn.Model)
		}
		repNo, err := simulate(cfgNo, nil, sn, keep)
		if err != nil {
			return nil, err
		}
		repPB, err := simulate(cfgPB, shared.TruncateToBudget(cfgPB.PBBytes, prio), sn, keep)
		if err != nil {
			return nil, err
		}
		// The paper's energy metric profiles weight DRAM accesses
		// (activations move identically in both designs).
		offNo := float64(repNo.DistinctBytes) * cfgNo.OffChipPJPerByte * 1e-12
		offPB := float64(repPB.DistinctBytes) * cfgPB.OffChipPJPerByte * 1e-12
		save := 100 * (1 - offPB/offNo)
		if save < lo {
			lo = save
		}
		if save > hi {
			hi = save
		}
		res.Rows = append(res.Rows, []string{
			sn.Name,
			f3(offNo * 1e3), f3(repNo.OnChipEnergyJ * 1e3),
			f3(offPB * 1e3), f3(repPB.OnChipEnergyJ * 1e3),
			f1(save),
		})
	}
	res.Metrics = map[string]float64{"energy_save_min_pct": lo, "energy_save_max_pct": hi}
	res.Notes = append(res.Notes,
		fmt.Sprintf("measured off-chip weight-energy saving %.1f-%.1f%% (paper: %s%%)", lo, hi, published(w, "energy_save_min_pct").band()))
	return res, nil
}

// Fig14 regenerates the per-layer DPU comparison (Fig. 14): ResNet50's
// min SubNet, 3x3 conv layers, SushiAccel w/o PB vs the Xilinx DPU.
func (s setting) Fig14() (*Result, error) {
	_, fr, err := frontierFor(ResNet50)
	if err != nil {
		return nil, err
	}
	minSN := fr[0]
	dpu := baseline.XilinxDPU()
	res := &Result{
		Name:   "fig14",
		Title:  "Per-layer latency: SushiAccel w/o PB vs Xilinx DPU (ResNet50 min SubNet, 3x3 convs)",
		Header: []string{"layer", "K", "C", "XY", "DPU(ms)", "Sushi(ms)", "speedup"},
	}
	logSum, n, won := 0.0, 0, 0.0
	for i := range minSN.Model.Layers {
		l := &minSN.Model.Layers[i]
		if l.Kind != nn.Conv || l.R != 3 || l.S != 3 {
			continue
		}
		rep, err := simulate(s.board.WithoutPB(), nil, minSN, func(j int) bool { return j == i })
		if err != nil {
			return nil, err
		}
		d := dpu.LayerLatency(l)
		ratio := d / rep.Total()
		logSum += math.Log(ratio)
		n++
		if ratio > 1 {
			won++
		}
		res.Rows = append(res.Rows, []string{
			l.Name, fmt.Sprintf("%d", l.K), fmt.Sprintf("%d", l.C),
			fmt.Sprintf("%dx%d", l.OutH, l.OutW),
			ms(d), ms(rep.Total()), f2(ratio) + "x",
		})
	}
	geo := math.Exp(logSum / float64(n))
	res.Metrics = map[string]float64{"geomean_speedup_x": geo, "layers_won": won, "layers_lost": float64(n) - won}
	paper := published("", "geomean_speedup_x")
	res.Notes = append(res.Notes,
		fmt.Sprintf("geomean speedup %.2fx over %d layers (paper: %sx / %.1f%%)", geo, n, paper.band(), 100*(paper.lo-1)),
		"layers where the DPU wins have high X/Y (its pixel parallelism), matching §5.5")
	return res, nil
}

// Fig9 regenerates the dataflow timelines of Fig. 9: the intra-layer
// tile schedule showing the ping-pong Dynamic Buffer hiding weight
// fetches behind compute (9b), and the multi-query saving from keeping
// the common SubGraph resident (9a).
func (s setting) Fig9(w Workload) (*Result, error) {
	super, fr, err := frontierFor(w)
	if err != nil {
		return nil, err
	}
	cfg := s.board
	// Pick the model's largest-weight conv layer: several DB tiles.
	sn := fr[len(fr)-1]
	var pick *nn.Layer
	for i := range sn.Model.Layers {
		l := &sn.Model.Layers[i]
		if l.Kind != nn.Conv {
			continue
		}
		if pick == nil || l.WeightBytes() > pick.WeightBytes() {
			pick = l
		}
	}
	if pick == nil {
		return nil, fmt.Errorf("core: no conv layer in %s", sn.Name)
	}
	res := &Result{
		Name:   "fig9",
		Title:  fmt.Sprintf("Intra-layer tile timeline (%s, layer %s) — times in µs", w, pick.Name),
		Header: []string{"tile", "fetch", "compute", "hidden"},
	}
	us := func(lo, hi float64) string {
		if hi <= lo {
			return "resident"
		}
		return fmt.Sprintf("[%.1f, %.1f]", lo*1e6, hi*1e6)
	}
	cold := accel.Timeline(&cfg, pick, 0)
	nHidden := 0.0
	for _, e := range cold {
		hidden := "no"
		if e.Hidden {
			hidden = "yes"
			nHidden++
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", e.Tile),
			us(e.FetchStart, e.FetchEnd),
			us(e.ComputeStart, e.ComputeEnd),
			hidden,
		})
	}
	// Fig. 9a: the per-query saving of keeping the shared SubGraph
	// resident rather than re-fetching it every query.
	shared, err := supernet.SharedGraph(fr)
	if err != nil {
		return nil, err
	}
	g := shared.TruncateToBudget(cfg.PBBytes, latencytable.Priority(super, latencytable.TailFirst))
	repCold, err := simulate(cfg.WithoutPB(), nil, sn, nil)
	if err != nil {
		return nil, err
	}
	repWarm, err := simulate(cfg, g, sn, nil)
	if err != nil {
		return nil, err
	}
	// The first fetch is never hidden. A one-tile layer has no later
	// fetch, and its share reads 0, not NaN, which JSON cannot carry.
	later := float64(len(cold) - 1)
	res.Metrics = map[string]float64{"later_fetches": later, "later_fetches_hidden_share": nHidden / max(later, 1)}
	res.Notes = append(res.Notes,
		fmt.Sprintf("cold makespan %.1f µs; every post-first fetch hidden behind compute (Fig. 9b)",
			accel.Makespan(cold)*1e6),
		fmt.Sprintf("multi-query (Fig. 9a): stage B once instead of per query saves %.3f ms/query on %s",
			(repCold.Total()-repWarm.Total())*1e3, sn.Name))
	return res, nil
}
