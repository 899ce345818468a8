package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"sushi/internal/accel"
)

// expectedFlips pins each open-ended claim row, by run and claim text,
// that leaves its default verdict at some drawn setting, with its cause.
// A flip is a finding about the model: it is listed here, never filtered
// out of the generator.
var expectedFlips = map[string]string{
	"fig2: latter layers are memory-bound: later-half share minus earlier-half":  "no ResNet50 conv layer is memory-bound at the default; at 0.5-0.75x the study's bandwidth the later ones turn memory-bound first",
	"ablation-avg: running average's latency gain over intersection":             "the arms tie (0.00 % at most draws), so the gain's sign follows the board",
	"ablation-avg:mobilenetv3: running average's latency gain over intersection": "the gain stays within ±0.5 %, and its sign follows the board",
}

// drawSetting scales each role's off-chip bandwidth and PB size by
// independent log-uniform factors in [½, 2], and marks each name drawn.
func drawSetting(rng *rand.Rand) setting {
	s := defaultSetting
	for _, c := range []*accel.Config{&s.board, &s.study, &s.scaleUp} {
		c.OffChipBW *= math.Exp2(2*rng.Float64() - 1)
		c.PBBytes = int64(float64(c.PBBytes) * math.Exp2(2*rng.Float64()-1))
		c.Name += " (drawn)"
	}
	return s
}

// TestDrawnTextNamesItsHardware: the experiments that name the board or
// the scale-up card take the name from the setting, so at a drawn
// setting they name the drawn hardware, and a preset's name is left
// only on the lines that quote the paper.
func TestDrawnTextNamesItsHardware(t *testing.T) {
	s := drawSetting(rand.New(rand.NewSource(1)))
	drawn := strings.NewReplacer(s.board.Name, "", s.scaleUp.Name, "", cardName(s.scaleUp), "")
	for _, c := range []struct {
		run  func() (*Result, error)
		card bool // the text names the scale-up card too
	}{{s.Table1, false}, {s.Table2, true}, {s.Table3, false}, {s.Fig13a, true}} {
		res, err := c.run()
		if err != nil {
			t.Fatal(err)
		}
		text := res.String()
		if !strings.Contains(text, s.board.Name) || c.card && !strings.Contains(text, cardName(s.scaleUp)) {
			t.Errorf("%s does not name the drawn board %q or card %q:\n%s", res.Name, s.board.Name, cardName(s.scaleUp), text)
		}
		for _, line := range strings.Split(drawn.Replace(text), "\n") {
			if !strings.Contains(line, "paper") && (strings.Contains(line, "ZCU104") || strings.Contains(line, "U50")) {
				t.Errorf("%s names a preset at a drawn setting: %q", res.Name, line)
			}
		}
	}
}

// draws is the number of settings TestTrendVerdictsHoldOffDefault draws.
const draws = 32

// TestTrendVerdictsHoldOffDefault is the metamorphic test: every
// open-ended (trend) claim row keeps its default verdict on hardware
// drawn around the paper's presets.
func TestTrendVerdictsHoldOffDefault(t *testing.T) {
	var open []claim
	for _, c := range claims {
		if math.IsInf(c.lo, -1) || math.IsInf(c.hi, 1) {
			open = append(open, c)
		}
	}
	want, err := defaultSetting.fidelity(open)
	if err != nil || len(want.Rows) == 0 {
		t.Fatalf("no open-ended rows: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	flipped := map[string]bool{}
	for i := range draws {
		s := drawSetting(rng)
		for _, c := range []accel.Config{s.board, s.study, s.scaleUp} {
			if err := c.Validate(); err != nil {
				t.Fatalf("draw %d: %v", i, err)
			}
		}
		got, err := s.fidelity(open)
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		for r, row := range got.Rows {
			key := row[0] + ": " + row[2]
			if row[5] == want.Rows[r][5] {
				continue
			}
			flipped[key] = true
			if _, ok := expectedFlips[key]; !ok {
				t.Errorf("draw %d (board %.3g B/s, PB %d B; study %.3g B/s, PB %d B; scale-up %.3g B/s, PB %d B): %s reads %s (%s), default %s (%s)",
					i, s.board.OffChipBW, s.board.PBBytes, s.study.OffChipBW, s.study.PBBytes, s.scaleUp.OffChipBW, s.scaleUp.PBBytes,
					key, row[5], row[3], want.Rows[r][5], want.Rows[r][3])
			}
		}
	}
	for key := range expectedFlips {
		if !flipped[key] {
			t.Errorf("%s never flips: drop it from expectedFlips", key)
		}
	}
}

// TestPresetsNamedOnce holds this package's non-test files to one
// statement of the hardware and of the serving defaults: each accel
// preset is named once (in defaultSetting), and the only non-empty
// serving.Options literal is DeployOptions.servingOptions'.
func TestPresetsNamedOnce(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]int{}
	var literals []string
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			scope := "package scope"
			if fn, ok := d.(*ast.FuncDecl); ok {
				scope = fn.Name.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if pkg, ok := x.X.(*ast.Ident); ok && pkg.Name == "accel" {
						named[x.Sel.Name]++
					}
				case *ast.CompositeLit:
					if sel, ok := x.Type.(*ast.SelectorExpr); ok && len(x.Elts) > 0 {
						if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "serving" && sel.Sel.Name == "Options" {
							literals = append(literals, scope+" ("+fset.Position(x.Pos()).String()+")")
						}
					}
				}
				return true
			})
		}
	}
	for _, p := range []string{"ZCU104", "AlveoU50", "RooflineStudy"} {
		if named[p] != 1 {
			t.Errorf("accel.%s is named %d times, want once (in defaultSetting)", p, named[p])
		}
	}
	if len(literals) != 1 || !strings.HasPrefix(literals[0], "servingOptions ") {
		t.Errorf("serving.Options literals in %v, want only DeployOptions.servingOptions'", literals)
	}
}
