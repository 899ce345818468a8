package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"sushi/internal/sched"
)

// experimentEntry couples an experiment id with its runner and default
// workload. Experiments and Experiment both read experimentRegistry,
// so the advertised list and the dispatch can never diverge.
type experimentEntry struct {
	id string
	// workload is the default when the id carries no ":workload" suffix
	// ("" means ResNet50). Workload-insensitive runners ignore it.
	workload Workload
	run      func(setting, Workload) (*Result, error)
}

// fixed adapts a workload-insensitive experiment to the registry shape.
func fixed(run func(setting) (*Result, error)) func(setting, Workload) (*Result, error) {
	return func(s setting, _ Workload) (*Result, error) { return run(s) }
}

// experimentRegistry is filled in init because its fidelity entry runs
// the registry itself, which a variable initializer may not refer to.
var experimentRegistry []experimentEntry

func init() {
	experimentRegistry = []experimentEntry{
		{id: "fig2", run: setting.Fig2},
		{id: "fig3", run: fixed(setting.Fig3)},
		{id: "fig9", run: setting.Fig9},
		{id: "fig10", run: setting.Fig10},
		{id: "fig11", run: setting.Fig11},
		{id: "fig12", run: setting.Fig12},
		{id: "fig13a", run: fixed(setting.Fig13a)},
		{id: "fig13b", run: setting.Fig13b},
		{id: "fig14", run: fixed(setting.Fig14)},
		{id: "fig15", run: func(s setting, w Workload) (*Result, error) { return s.Fig15(w, sched.StrictLatency, 0) }},
		{id: "fig15acc", run: func(s setting, w Workload) (*Result, error) { return s.Fig15(w, sched.StrictAccuracy, 0) }},
		{id: "fig16", run: func(s setting, w Workload) (*Result, error) { return s.Fig16(w, 0) }},
		{id: "fig17", run: func(s setting, w Workload) (*Result, error) { return s.Fig17(w, 0) }},
		// fig18 is fig17's companion Q-sweep on the MobileNetV3 family.
		{id: "fig18", workload: MobileNetV3, run: func(s setting, w Workload) (*Result, error) { return s.Fig17(w, 0) }},
		{id: "table1", run: fixed(setting.Table1)},
		{id: "table2", run: fixed(setting.Table2)},
		{id: "table3", run: fixed(setting.Table3)},
		{id: "table4", run: fixed(setting.Table4)},
		{id: "table5", run: func(s setting, w Workload) (*Result, error) { return s.Table5(w, 0) }},
		{id: "table6", run: setting.Table6},
		{id: "hitratio", run: fixed(func(s setting) (*Result, error) { return s.HitRatioA4(0) })},
		{id: "ablation-avg", run: func(s setting, w Workload) (*Result, error) { return s.AblationAvg(w, 0) }},
		{id: "overload", run: func(s setting, w Workload) (*Result, error) { return s.Overload(w, 0) }},
		{id: "fidelity", run: fixed(func(s setting) (*Result, error) { return s.fidelity(claims) })},
	}
}

// Experiment regenerates one of the paper's tables or figures by id
// (see Experiments) on the paper's hardware. An "id:workload" suffix
// picks the SuperNet family; without one the registry entry's default
// applies (resnet50 unless the entry says otherwise). Every id rejects
// an unknown workload; workload-insensitive experiments otherwise
// ignore the suffix.
func Experiment(id string) (*Result, error) { return defaultSetting.experiment(id) }

// experiment runs the registry id at s.
func (s setting) experiment(id string) (*Result, error) {
	name, suffix, _ := strings.Cut(id, ":")
	for _, e := range experimentRegistry {
		if e.id != name {
			continue
		}
		w := cmp.Or(Workload(suffix), e.workload, ResNet50)
		if frontierCache[w] == nil {
			_, err := BuildSuperNet(w)
			return nil, err
		}
		return e.run(s, w)
	}
	return nil, fmt.Errorf("core: unknown experiment %q (have %v)", id, Experiments())
}

// Experiments lists the available experiment ids, in registry order.
func Experiments() []string {
	out := make([]string, len(experimentRegistry))
	for i, e := range experimentRegistry {
		out[i] = e.id
	}
	return out
}

// claim is one statement of the paper next to the Result.Metrics keys
// that carry its reproduction. A claim without keys has nothing the tree
// can measure; its text says why.
type claim struct {
	section, text string
	// runs are the registry ids ("id:workload") that reproduce it.
	runs, keys []string
	unit       string
	// lo and hi bound the published value; lo == hi for a point claim,
	// and a trend, which states only a direction, leaves one end open
	// (±Inf). neutral is the no-effect value: 0 for a saving, 1 for a
	// speedup.
	lo, hi, neutral float64
}

// Table 3's on-chip storage of both designs, BRAM and URAM.
const bramKB, uramKB = 397, 3456

var inf = math.Inf(1)

// claims holds every statement the paper makes that the tree can score,
// each typed once: the experiments' notes quote the numbers from here,
// and the fidelity experiment scores each run against it.
var claims = []claim{
	{"Fig. 2", "latter layers are memory-bound: later-half share minus earlier-half", []string{"fig2", "fig2:mobilenetv3"}, []string{"memory_bound_rise_pp"}, "pp", 0, inf, 0},
	{"Fig. 3", "SubNets fastest under their own cache shape", []string{"fig3"}, []string{"own_shape_fastest"}, "of 2", 2, 2, 0},
	// A share of 1 is every fetch; the count rules out a vacuous one.
	{"Fig. 9", "the ping-pong DB hides every later fetch: how many, share hidden", []string{"fig9", "fig9:mobilenetv3"}, []string{"later_fetches", "later_fetches_hidden_share"}, "", 1, inf, 0},
	{"Sec. 5.2, Fig. 10", "potential saving across SubNets", []string{"fig10:resnet50"}, []string{"save_min_pct", "save_max_pct"}, "%", 5.7, 7.92, 0},
	{"Sec. 5.2, Fig. 10", "potential saving across SubNets", []string{"fig10:mobilenetv3"}, []string{"save_min_pct", "save_max_pct"}, "%", 6, 23.6, 0},
	{"Fig. 11", "SGS raises effective intensity: smallest AI+SGS / AI", []string{"fig11", "fig11:mobilenetv3"}, []string{"sgs_intensity_gain_min_x"}, "x", 1, inf, 1},
	{"Sec. 5.3, Fig. 12", "neighbours breaking bigger PB, more compute, less bandwidth save more", []string{"fig12", "fig12:mobilenetv3"}, []string{"pb_breaks", "compute_breaks", "bandwidth_breaks"}, "", 0, 0, 0},
	{"Sec. 5.4, Fig. 13a", "ZCU104 speedup over the CPU, w/o PB", []string{"fig13a"}, []string{"speedup_nopb_min_x", "speedup_nopb_max_x"}, "x", 1.81, 3.04, 1},
	{"Sec. 5.4, Fig. 13a", "ZCU104 speedup over the CPU, w/ PB", []string{"fig13a"}, []string{"speedup_min_x", "speedup_max_x"}, "x", 1.87, 3.17, 1},
	{"Sec. 5.4.2, Fig. 13a", "U50 / ZCU104 latency w/ PB, smallest SubNet", []string{"fig13a"}, []string{"u50_vs_zcu104_smallest_x"}, "x", 1, inf, 1},
	{"Sec. 5.4.2, Fig. 13a", "U50 / ZCU104 latency w/ PB, largest SubNet", []string{"fig13a"}, []string{"u50_vs_zcu104_largest_x"}, "x", -inf, 1, 1},
	{"Sec. 5.4.3, Fig. 13b", "off-chip weight-energy saving", []string{"fig13b:resnet50"}, []string{"energy_save_min_pct", "energy_save_max_pct"}, "%", 14, 52.6, 0},
	{"Sec. 5.4.3, Fig. 13b", "off-chip weight-energy saving", []string{"fig13b:mobilenetv3"}, []string{"energy_save_min_pct", "energy_save_max_pct"}, "%", 43.6, 78.7, 0},
	{"Sec. 5.5, Fig. 14", "geomean speedup over the DPU", []string{"fig14"}, []string{"geomean_speedup_x"}, "x", 1.251, 1.251, 1},
	{"Sec. 5.5, Fig. 14", "layers won and lost against the DPU", []string{"fig14"}, []string{"layers_won", "layers_lost"}, "", 1, inf, 0},
	{"Sec. 5.6, Fig. 15", "violations of a satisfiable constraint", []string{"fig15", "fig15acc", "fig15:mobilenetv3", "fig15acc:mobilenetv3"}, []string{"violations"}, "", 0, 0, 0},
	{"Sec. 5.7, Fig. 16", "avg latency cut vs No-Sushi", []string{"fig16:resnet50", "fig16:mobilenetv3"}, []string{"latency_cut_pct"}, "%", 21, 25, 0},
	// Q=1 re-targets the cache after every query: no window at all.
	{"App. A.1, Fig. 17/18", "best cache-update window Q", []string{"fig17:resnet50", "fig18:mobilenetv3"}, []string{"best_q"}, "", 4, 10, 1},
	{section: "Table 1", text: "minimum buffer widths; no number to score: the paper gives each as a rule", runs: []string{"table1"}},
	{"Table 2", "ZCU104 w/ PB LUTs", []string{"table2"}, []string{"lut"}, "", 64307, 64307, 0},
	{"Table 2", "ZCU104 w/ PB registers", []string{"table2"}, []string{"ff"}, "", 117724, 117724, 0},
	{"Table 2", "ZCU104 w/ PB BRAMs", []string{"table2"}, []string{"bram"}, "", 198.5, 198.5, 0},
	{"Table 2", "ZCU104 w/ PB URAMs", []string{"table2"}, []string{"uram"}, "", 96, 96, 0},
	{"Table 2", "ZCU104 w/ PB DSPs", []string{"table2"}, []string{"dsp"}, "", 1459, 1459, 0},
	{"Table 3", "overall on-chip storage, w/o and w/ PB", []string{"table3"}, []string{"overall_nopb_kb", "overall_kb"}, "KB", bramKB + uramKB, bramKB + uramKB, 0},
	{section: "Table 4", text: "SubGraph reuse is a new reuse class; no number to score: a feature matrix", runs: []string{"table4"}},
	{"Table 5", "improvement from 10 to 500 columns", []string{"table5:resnet50"}, []string{"improvement_min_pct", "improvement_max_pct"}, "%", 4, 9, 0},
	{"Table 5", "improvement from 10 to 500 columns", []string{"table5:mobilenetv3"}, []string{"improvement_min_pct", "improvement_max_pct"}, "%", 1, 1, 0},
	{"Table 6", "column search, 100-2000 columns", []string{"table6"}, []string{"nearest_min_us", "nearest_max_us"}, "us", 2, 17, 0},
	{"App. A.4", "avg cache-hit ratio, ResNet50", []string{"hitratio"}, []string{"hit_ratio_resnet50"}, "", 0.66, 0.66, 0},
	{"App. A.4", "avg cache-hit ratio, MobileNetV3", []string{"hitratio"}, []string{"hit_ratio_mobilenetv3"}, "", 0.78, 0.78, 0},
	{"Sec. 3.3", "running average's latency gain over intersection", []string{"ablation-avg", "ablation-avg:mobilenetv3"}, []string{"avg_gain_pct"}, "%", 0, inf, 0},
	{"Sec. 1", "static top model minus SUSHI drops, least over the ≥ 1.5x rates", []string{"overload", "overload:mobilenetv3"}, []string{"drop_gap_min"}, "queries", 0, inf, 0},
}

// published returns the claim whose keys hold key on a run of workload w
// ("" for a workload-insensitive experiment).
func published(w Workload, key string) claim {
	for _, c := range claims {
		for _, run := range c.runs {
			_, suffix, _ := strings.Cut(run, ":")
			if (w == "" || Workload(suffix) == w) && slices.Contains(c.keys, key) {
				return c
			}
		}
	}
	panic("core: no published claim for " + key + " on " + string(w))
}

// band renders the published value as typed: "5.7-7.92", "1.251" for a
// point claim, or "≥ 0" and "≤ 1" for a band with an open end.
func (c claim) band() string {
	lo, hi := strconv.FormatFloat(c.lo, 'g', -1, 64), strconv.FormatFloat(c.hi, 'g', -1, 64)
	switch {
	case math.IsInf(c.hi, 1):
		return "≥ " + lo
	case math.IsInf(c.lo, -1):
		return "≤ " + hi
	case c.hi == c.lo:
		return lo
	}
	return lo + "-" + hi
}

// verdict scores reproduced values against the claim: "inside" when each
// lies in [lo, hi] and, unless the band is a point, differs from the
// neutral value (a trend's open band states a strict direction); "same
// direction" when each lies on the band's side of the neutral value;
// "opposite" otherwise, NaN included.
func (c claim) verdict(vals []float64) string {
	if len(c.keys) == 0 {
		return "trend only"
	}
	up, down := c.lo > c.neutral, c.hi < c.neutral
	in, same := true, up || down
	for _, v := range vals {
		in = in && v >= c.lo && v <= c.hi && (v != c.neutral || c.lo == c.hi)
		same = same && (up && v > c.neutral || down && v < c.neutral)
	}
	switch {
	case in:
		return "inside"
	case same:
		return "same direction"
	}
	return "opposite"
}

// fidelity scores every claim of cs on each of its runs at s, running
// each claimed registry id once; claims without keys are not run.
func (s setting) fidelity(cs []claim) (*Result, error) {
	res := &Result{
		Name:   "fidelity",
		Title:  "Paper fidelity: reproduced vs published, one verdict per claim and run",
		Header: []string{"id", "section", "claim", "reproduced", "published", "verdict"},
	}
	results := map[string]*Result{}
	for _, c := range cs {
		for _, run := range c.runs {
			got, paper := "-", "-"
			var vals []float64
			if len(c.keys) > 0 {
				if results[run] == nil {
					r, err := s.experiment(run)
					if err != nil {
						return nil, err
					}
					results[run] = r
				}
				var cells []string
				for _, k := range c.keys {
					v, ok := results[run].Metrics[k]
					if !ok {
						return nil, fmt.Errorf("core: %s sets no metric %q", run, k)
					}
					vals, cells = append(vals, v), append(cells, strconv.FormatFloat(math.Round(v*100)/100, 'g', -1, 64))
				}
				got, paper = strings.Join(cells, ", ")+" "+c.unit, c.band()+" "+c.unit
			}
			res.Rows = append(res.Rows, []string{run, c.section, c.text, got, paper, c.verdict(vals)})
		}
	}
	res.Notes = append(res.Notes,
		"inside: every reproduced value in the published band; same direction: each on the band's side of no effect (0 % saving, 1x speedup)",
		"an open band (≥ x, ≤ x) is a trend: its no-effect end is never inside")
	return res, nil
}
