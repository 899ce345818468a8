package core

import (
	"math"
	"strings"
	"testing"
)

// fidelityPins is the verdict of every row of the fidelity scoreboard,
// in table order. A change that moves a reproduced number across a band
// edge, or edits a band, fails TestPaperFidelity: update the pin and
// call the move out in the change's notes. Table 6's row is wall-clock
// time, so it is printed but not gated.
var fidelityPins = []struct{ id, verdict string }{
	{"fig2", "opposite"},
	{"fig2:mobilenetv3", "opposite"},
	{"fig3", "inside"},
	{"fig9", "inside"},
	{"fig9:mobilenetv3", "opposite"}, // one tile: no later fetch
	{"fig10:resnet50", "same direction"},
	{"fig10:mobilenetv3", "inside"},
	{"fig11", "inside"},
	{"fig11:mobilenetv3", "inside"},
	{"fig12", "opposite"},
	{"fig12:mobilenetv3", "inside"},
	{"fig13a", "inside"}, // w/o PB
	{"fig13a", "inside"}, // w/ PB
	{"fig13a", "inside"}, // U50 slower, smallest SubNet
	{"fig13a", "inside"}, // U50 faster, largest SubNet
	{"fig13b:resnet50", "same direction"},
	{"fig13b:mobilenetv3", "same direction"},
	{"fig14", "same direction"}, // geomean
	{"fig14", "inside"},         // wins and losses
	{"fig15", "inside"},
	{"fig15acc", "inside"},
	{"fig15:mobilenetv3", "inside"},
	{"fig15acc:mobilenetv3", "inside"},
	{"fig16:resnet50", "same direction"},
	{"fig16:mobilenetv3", "same direction"},
	{"fig17:resnet50", "same direction"},
	{"fig18:mobilenetv3", "inside"},
	{"table1", "trend only"},
	{"table2", "same direction"}, // LUTs
	{"table2", "same direction"}, // registers
	{"table2", "same direction"}, // BRAMs
	{"table2", "inside"},         // URAMs
	{"table2", "same direction"}, // DSPs
	{"table3", "inside"},
	{"table4", "trend only"},
	{"table5:resnet50", "opposite"},
	{"table5:mobilenetv3", "opposite"},
	{"table6", ""},
	{"hitratio", "same direction"}, // ResNet50
	{"hitratio", "same direction"}, // MobileNetV3
	{"ablation-avg", "opposite"},
	{"ablation-avg:mobilenetv3", "opposite"},
	{"overload", "inside"},
	{"overload:mobilenetv3", "inside"},
}

// TestPaperFidelity runs the scoreboard and pins each row's verdict. It
// also holds the claim table to the paper's experiments: every paper id
// has a row, and no cluster-scale extension has one.
func TestPaperFidelity(t *testing.T) {
	res, err := Experiment("fidelity")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(fidelityPins) {
		t.Fatalf("scoreboard has %d rows, %d pinned:\n%s", len(res.Rows), len(fidelityPins), res)
	}
	ids := map[string]bool{}
	for i, row := range res.Rows {
		pin := fidelityPins[i]
		id, verdict := row[0], row[len(row)-1]
		name, _, _ := strings.Cut(id, ":")
		ids[name] = true
		switch {
		case id != pin.id:
			t.Errorf("row %d is %s, pinned %s", i, id, pin.id)
		case id != "table6" && verdict != pin.verdict:
			t.Errorf("%s %q: verdict %q, pinned %q (reproduced %s, published %s)",
				id, row[2], verdict, pin.verdict, row[3], row[4])
		}
	}
	paper := strings.Fields("fig2 fig3 fig9 fig10 fig11 fig12 fig13a fig13b fig14 fig15 fig15acc fig16 fig17 fig18 " +
		"table1 table2 table3 table4 table5 table6 hitratio ablation-avg overload")
	for _, id := range paper {
		if !ids[id] {
			t.Errorf("paper experiment %s has no claim", id)
		}
	}
	if len(ids) != len(paper) {
		t.Errorf("claims name %d ids, want only the %d paper ids: %v", len(ids), len(paper), ids)
	}
}

// TestClaimVerdict pins the verdict rule at its edges, and the band
// renderer's forms.
func TestClaimVerdict(t *testing.T) {
	nan := math.NaN()
	saving := claim{keys: []string{"k"}, lo: 21, hi: 25}
	speedup := claim{keys: []string{"k"}, lo: 1.87, hi: 3.17, neutral: 1}
	slowdown := claim{keys: []string{"k"}, lo: 0.5, hi: 0.8, neutral: 1}
	zero := claim{keys: []string{"k"}}
	rise := claim{keys: []string{"k"}, lo: 0, hi: inf}              // a trend: > 0
	fall := claim{keys: []string{"k"}, lo: -inf, hi: 1, neutral: 1} // a trend: < 1
	some := claim{keys: []string{"k"}, lo: 1, hi: inf}              // at least one
	for _, tc := range []struct {
		name string
		c    claim
		vals []float64
		want string
	}{
		{"lo", saving, []float64{21}, "inside"},
		{"hi", saving, []float64{25}, "inside"},
		{"below band", saving, []float64{1}, "same direction"},
		{"above band", saving, []float64{30}, "same direction"},
		{"+Inf", saving, []float64{inf}, "same direction"},
		{"neutral", saving, []float64{0}, "opposite"},
		{"past neutral", saving, []float64{-0.16, 0.17}, "opposite"},
		{"-Inf", saving, []float64{-inf}, "opposite"},
		{"NaN", saving, []float64{nan}, "opposite"},
		{"speedup inside", speedup, []float64{2.61, 2.92}, "inside"},
		{"speedup short", speedup, []float64{1.07}, "same direction"},
		{"band below neutral", slowdown, []float64{0.9}, "same direction"},
		{"band below neutral, +Inf", slowdown, []float64{inf}, "opposite"},
		{"point at neutral", zero, []float64{0}, "inside"},
		{"no keys", claim{}, nil, "trend only"},
		{"open up", rise, []float64{0.01, inf}, "inside"},
		{"open up, neutral", rise, []float64{0}, "opposite"},
		{"open up, past neutral", rise, []float64{-62.5}, "opposite"},
		{"open up, NaN", rise, []float64{nan}, "opposite"},
		{"open down", fall, []float64{0.57, -inf}, "inside"},
		{"open down, neutral", fall, []float64{1}, "opposite"},
		{"open down, past neutral", fall, []float64{1.5}, "opposite"},
		{"open down, NaN", fall, []float64{nan}, "opposite"},
		{"open up from past neutral, short", some, []float64{0.5}, "same direction"},
		{"open up from past neutral, neutral", some, []float64{0, 6}, "opposite"},
	} {
		if got := tc.c.verdict(tc.vals); got != tc.want {
			t.Errorf("%s: verdict(%v) = %q, want %q", tc.name, tc.vals, got, tc.want)
		}
	}
	for c, want := range map[*claim]string{&saving: "21-25", &speedup: "1.87-3.17", &zero: "0", &rise: "≥ 0", &fall: "≤ 1", &some: "≥ 1"} {
		if got := c.band(); got != want {
			t.Errorf("band() = %q, want %q", got, want)
		}
	}
}
