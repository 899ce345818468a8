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
	{"fig2", "trend only"},
	{"fig3", "trend only"},
	{"fig9", "trend only"},
	{"fig10:resnet50", "same direction"},
	{"fig10:mobilenetv3", "inside"},
	{"fig11", "trend only"},
	{"fig12", "trend only"},
	{"fig13a", "inside"}, // w/o PB
	{"fig13a", "inside"}, // w/ PB
	{"fig13b:resnet50", "same direction"},
	{"fig13b:mobilenetv3", "same direction"},
	{"fig14", "same direction"},
	{"fig15", "inside"},
	{"fig15acc", "inside"},
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
	{"ablation-avg", "trend only"},
	{"overload", "trend only"},
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

// TestClaimVerdict pins the verdict rule at its edges.
func TestClaimVerdict(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	saving := claim{keys: []string{"k"}, lo: 21, hi: 25}
	speedup := claim{keys: []string{"k"}, lo: 1.87, hi: 3.17, neutral: 1}
	slowdown := claim{keys: []string{"k"}, lo: 0.5, hi: 0.8, neutral: 1}
	zero := claim{keys: []string{"k"}}
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
	} {
		if got := tc.c.verdict(tc.vals); got != tc.want {
			t.Errorf("%s: verdict(%v) = %q, want %q", tc.name, tc.vals, got, tc.want)
		}
	}
}
