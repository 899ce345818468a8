package latencytable

import (
	"bytes"
	"testing"

	"sushi/internal/accel"
	"sushi/internal/supernet"
)

func testFixture(t *testing.T) (*supernet.SuperNet, []*supernet.SubNet, accel.Config) {
	t.Helper()
	s := supernet.NewOFAMobileNetV3()
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	return s, fr, accel.ZCU104()
}

func TestPriorityIsPermutation(t *testing.T) {
	s, _, _ := testFixture(t)
	for _, st := range []Strategy{HeadFirst, TailFirst, DeepThin, WideShallow} {
		p := Priority(s, st)
		if len(p) != s.NumCells() {
			t.Fatalf("%v: len %d, want %d", st, len(p), s.NumCells())
		}
		seen := make([]bool, s.NumCells())
		for _, id := range p {
			if id < 0 || id >= s.NumCells() || seen[id] {
				t.Fatalf("%v: not a permutation at id %d", st, id)
			}
			seen[id] = true
		}
	}
}

func TestPriorityShapes(t *testing.T) {
	s, _, _ := testFixture(t)
	// TailFirst must start at the last layer; HeadFirst at the first.
	tail := Priority(s, TailFirst)
	if got := s.Cells[tail[0]].Layer; got != s.NumLayers()-1 {
		t.Errorf("tail-first starts at layer %d, want %d", got, s.NumLayers()-1)
	}
	head := Priority(s, HeadFirst)
	if got := s.Cells[head[0]].Layer; got != 0 {
		t.Errorf("head-first starts at layer %d, want 0", got)
	}
	// DeepThin's first cells have minimal ring (KHi+CHi+AHi); its first
	// 10% must touch more distinct layers than WideShallow's first 10%.
	deep := Priority(s, DeepThin)
	wide := Priority(s, WideShallow)
	n := s.NumCells() / 10
	count := func(p []int) int {
		layers := map[int]bool{}
		for _, id := range p[:n] {
			layers[s.Cells[id].Layer] = true
		}
		return len(layers)
	}
	if count(deep) <= count(wide) {
		t.Errorf("deep-thin covers %d layers in first decile, wide-shallow %d; want deep > wide",
			count(deep), count(wide))
	}
}

func TestCandidatesRespectBudget(t *testing.T) {
	s, fr, cfg := testFixture(t)
	cands, err := Candidates(s, fr, CandidateOptions{Budget: cfg.PBBytes, Count: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 10 {
		t.Fatalf("only %d candidates generated", len(cands))
	}
	names := map[string]bool{}
	for _, g := range cands {
		if g.Bytes() > cfg.PBBytes {
			t.Errorf("candidate %s (%d B) exceeds PB budget %d", g.Name(), g.Bytes(), cfg.PBBytes)
		}
		if g.Count() == 0 {
			t.Errorf("candidate %s is empty", g.Name())
		}
		if names[g.Name()] {
			t.Errorf("duplicate candidate name %s", g.Name())
		}
		names[g.Name()] = true
	}
	// Candidates must be distinct as sets.
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			if Fingerprint(cands[i]) == Fingerprint(cands[j]) {
				t.Errorf("candidates %s and %s are identical", cands[i].Name(), cands[j].Name())
			}
		}
	}
}

func TestCandidatesDeterministic(t *testing.T) {
	s, fr, cfg := testFixture(t)
	opt := CandidateOptions{Budget: cfg.PBBytes, Count: 30, Seed: 7}
	a, err := Candidates(s, fr, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Candidates(s, fr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic candidate count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if Fingerprint(a[i]) != Fingerprint(b[i]) {
			t.Fatalf("candidate %d differs across runs", i)
		}
	}
}

func TestCandidatesValidation(t *testing.T) {
	s, fr, _ := testFixture(t)
	if _, err := Candidates(s, fr, CandidateOptions{Budget: 0, Count: 5}); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := Candidates(s, fr, CandidateOptions{Budget: 1 << 20, Count: 0}); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := Candidates(s, nil, CandidateOptions{Budget: 1 << 20, Count: 5}); err == nil {
		t.Error("empty frontier accepted")
	}
}

func TestBuildTable(t *testing.T) {
	s, fr, cfg := testFixture(t)
	cands, err := Candidates(s, fr, CandidateOptions{Budget: cfg.PBBytes, Count: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Build(cfg, fr, cands)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != len(fr) || tab.Cols() != len(cands) {
		t.Fatalf("table %dx%d, want %dx%d", tab.Rows(), tab.Cols(), len(fr), len(cands))
	}
	for i := 0; i < tab.Rows(); i++ {
		for j := 0; j < tab.Cols(); j++ {
			if tab.Lookup(i, j) <= 0 {
				t.Fatalf("L[%d][%d] = %g", i, j, tab.Lookup(i, j))
			}
			if tab.Energy[i][j] <= 0 {
				t.Fatalf("E[%d][%d] = %g", i, j, tab.Energy[i][j])
			}
		}
	}
	// Larger SubNets must be slower under any fixed cache state.
	for j := 0; j < tab.Cols(); j++ {
		for i := 1; i < tab.Rows(); i++ {
			if tab.Lookup(i, j) <= tab.Lookup(i-1, j) {
				t.Errorf("column %d: L[%d] %.4g !> L[%d] %.4g", j, i, tab.Lookup(i, j), i-1, tab.Lookup(i-1, j))
			}
		}
	}
	// A SubNet's own tail-truncated graph should be at least as good as a
	// mismatched candidate (cache-state awareness, Fig. 3).
	ownCol := -1
	for j, g := range tab.Graphs {
		if g.Name() == "A-tail" {
			ownCol = j
			break
		}
	}
	if ownCol >= 0 {
		for j := range tab.Graphs {
			if tab.Lookup(0, ownCol) > tab.Lookup(0, j)+1e-12 {
				t.Errorf("A under A-tail (%.6g) slower than under %s (%.6g)",
					tab.Lookup(0, ownCol), tab.Graphs[j].Name(), tab.Lookup(0, j))
			}
		}
	}
}

func TestNearestGraph(t *testing.T) {
	s, fr, cfg := testFixture(t)
	cands, err := Candidates(s, fr, CandidateOptions{Budget: cfg.PBBytes, Count: 12, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Build(cfg, fr, cands)
	if err != nil {
		t.Fatal(err)
	}
	// The nearest graph to a column's own vector is that column.
	for j := range tab.Graphs {
		v := tab.Graphs[j].Vector()
		got := tab.NearestGraph(v)
		if supernet.Distance(tab.Graphs[got].Vector(), v) > 1e-9 {
			t.Errorf("nearest(%d) = %d with nonzero distance", j, got)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s, fr, cfg := testFixture(t)
	cands, err := Candidates(s, fr, CandidateOptions{Budget: cfg.PBBytes, Count: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Build(cfg, fr, cands)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf, s, fr)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows() != tab.Rows() || back.Cols() != tab.Cols() {
		t.Fatalf("round trip %dx%d, want %dx%d", back.Rows(), back.Cols(), tab.Rows(), tab.Cols())
	}
	for i := 0; i < tab.Rows(); i++ {
		for j := 0; j < tab.Cols(); j++ {
			if back.Lookup(i, j) != tab.Lookup(i, j) {
				t.Fatalf("L[%d][%d] changed in round trip", i, j)
			}
		}
	}
	for j := range tab.Graphs {
		if back.Graphs[j].Bytes() != tab.Graphs[j].Bytes() {
			t.Fatalf("graph %d bytes changed in round trip", j)
		}
	}
	// Decoding against a mismatched supernet fails.
	var buf2 bytes.Buffer
	if err := tab.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	rn := supernet.NewOFAResNet50()
	rnFr, err := rn.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf2, rn, rnFr); err == nil {
		t.Error("decode against wrong supernet accepted")
	}
}

func TestBuildValidation(t *testing.T) {
	s, fr, cfg := testFixture(t)
	if _, err := Build(cfg, nil, []*supernet.SubGraph{supernet.NewSubGraph(s, "g")}); err == nil {
		t.Error("no subnets accepted")
	}
	if _, err := Build(cfg, fr, nil); err == nil {
		t.Error("no graphs accepted")
	}
	// Oversized graph column must fail capacity enforcement.
	if _, err := Build(cfg, fr, []*supernet.SubGraph{fr[len(fr)-1].Graph}); err == nil {
		t.Error("oversized column accepted")
	}
}

func TestBuildParallelDeterministic(t *testing.T) {
	// The parallel column profiling must be bit-deterministic: two builds
	// over the same inputs agree exactly.
	s, fr, cfg := testFixture(t)
	cands, err := Candidates(s, fr, CandidateOptions{Budget: cfg.PBBytes, Count: 24, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Build(cfg, fr, cands)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(cfg, fr, cands)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if a.Lookup(i, j) != b.Lookup(i, j) || a.Energy[i][j] != b.Energy[i][j] {
				t.Fatalf("parallel build non-deterministic at [%d][%d]", i, j)
			}
		}
	}
}

func TestCandidatesTinyBudget(t *testing.T) {
	// A budget below the smallest cell can produce no candidates; the
	// generator must return an empty (not broken) set rather than padding
	// with empty graphs.
	s, fr, _ := testFixture(t)
	cands, err := Candidates(s, fr, CandidateOptions{Budget: 1, Count: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range cands {
		if g.Count() == 0 {
			t.Fatal("empty candidate emitted")
		}
		if g.Bytes() > 1 {
			t.Fatal("candidate exceeds 1-byte budget")
		}
	}
}

// TestLookupBatchMatchesSimulator pins the batched SushiAbs abstraction
// against the thing it abstracts: for every (SubNet, SubGraph) pairing,
// LookupBatch(i, j, n) must equal the simulator's own ServeBatch total
// (the table records Lat and its per-item share from the same profiling
// run, so the reconstruction is exact up to float rounding), and n = 1
// must be bit-identical to Lookup.
func TestLookupBatchMatchesSimulator(t *testing.T) {
	s, fr, cfg := testFixture(t)
	cands, err := Candidates(s, fr, CandidateOptions{Budget: cfg.PBBytes, Count: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Build(cfg, fr, cands)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := accel.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j, g := range tab.Graphs {
		var err error
		if g.Count() == 0 {
			err = sim.SetCached(nil)
		} else {
			err = sim.SetCached(g)
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, sn := range tab.SubNets {
			if got := tab.LookupBatch(i, j, 1); got != tab.Lookup(i, j) {
				t.Fatalf("LookupBatch(%d,%d,1) = %g != Lookup %g", i, j, got, tab.Lookup(i, j))
			}
			for _, n := range []int{2, 5} {
				var rep accel.Report
				if err := sim.ServeBatchInto(&rep, sn, n); err != nil {
					t.Fatal(err)
				}
				got, want := tab.LookupBatch(i, j, n), rep.Total()
				if diff := got - want; diff > 1e-9*want || diff < -1e-9*want {
					t.Errorf("LookupBatch(%d,%d,%d) = %g, simulator %g", i, j, n, got, want)
				}
				// Batching must amortize, never inflate: per-query cost
				// strictly below n solo serves, above one.
				if got <= tab.Lookup(i, j) || got >= float64(n)*tab.Lookup(i, j) {
					t.Errorf("LookupBatch(%d,%d,%d) = %g outside (solo, n x solo)", i, j, n, got)
				}
			}
		}
	}
}

// TestLookupBatchSurvivesWire: the Item matrix must follow the table
// through the gob wire format.
func TestLookupBatchSurvivesWire(t *testing.T) {
	s, fr, cfg := testFixture(t)
	cands, err := Candidates(s, fr, CandidateOptions{Budget: cfg.PBBytes, Count: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Build(cfg, fr, cands)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(&buf, s, fr)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dec.LookupBatch(1, 2, 4), tab.LookupBatch(1, 2, 4); got != want {
		t.Errorf("decoded LookupBatch %g != original %g", got, want)
	}
}
