package core

import (
	"math/rand"
	"testing"

	"sushi/internal/accel"
	"sushi/internal/latencytable"
	"sushi/internal/sched"
	"sushi/internal/serving"
)

// noisyTable perturbs every latency cell by an independent
// multiplicative factor 1 + sigma·N(0,1), clamped positive — the model
// of a calibration sweep whose per-cell measurements carry relative
// error sigma. sigma 0 returns the truth itself.
func noisyTable(truth *latencytable.Table, sigma float64, seed int64) (*latencytable.Table, error) {
	if sigma == 0 {
		return truth, nil
	}
	rng := rand.New(rand.NewSource(seed))
	perturb := func(v float64) float64 {
		return v * max(1+sigma*rng.NormFloat64(), 0.05)
	}
	lat := make([][]float64, truth.Rows())
	item := make([][]float64, truth.Rows())
	for i := range lat {
		lat[i] = make([]float64, truth.Cols())
		item[i] = make([]float64, truth.Cols())
		for j := range lat[i] {
			lat[i][j] = perturb(truth.Lat[i][j])
			item[i][j] = perturb(truth.Item[i][j])
		}
	}
	return latencytable.FromMatrices(truth.SubNets, truth.Graphs, lat, item, truth.Energy)
}

// TestCalibSweepExactnessPin: the scheduler decides from a table
// carrying calibration noise while each decision is judged against the
// true table. A noiseless table must reproduce the true decisions
// exactly (100% attainment, zero flips, solo and batch-4), and the
// heaviest noise level must cost attainment — otherwise the model
// measures nothing.
func TestCalibSweepExactnessPin(t *testing.T) {
	super, fr, err := frontierFor(MobileNetV3)
	if err != nil {
		t.Fatal(err)
	}
	truth, _, err := serving.BuildTable(super, fr, serving.Options{
		Policy: sched.StrictLatency, Q: 4, Mode: serving.Full,
		Candidates: 16, Seed: 1, Accel: accel.ZCU104(),
	})
	if err != nil {
		t.Fatal(err)
	}
	const batchN, budgets = 4, 12
	// One budget ladder per decision, each spanning its own latency
	// range from just above the minimum to just above the maximum.
	ladder := func(lookup func(i, j int) float64) []float64 {
		lo, hi := lookup(0, 0), lookup(0, 0)
		for i := 0; i < truth.Rows(); i++ {
			for j := 0; j < truth.Cols(); j++ {
				lo, hi = min(lo, lookup(i, j)), max(hi, lookup(i, j))
			}
		}
		out := make([]float64, budgets)
		for k := range out {
			out[k] = lo*1.05 + (hi*1.10-lo*1.05)*float64(k)/float64(budgets-1)
		}
		return out
	}
	solo := ladder(truth.Lookup)
	batch := ladder(func(i, j int) float64 { return truth.LookupBatch(i, j, batchN) })
	// attainment returns the solo and batch-4 shares of (column, budget)
	// cells whose decision meets its budget on the truth, and how many
	// solo decisions differ from the truth's.
	attainment := func(noisy *latencytable.Table) (soloPct, batchPct float64, flips int) {
		var soloViol, batchViol, total int
		for j := 0; j < truth.Cols(); j++ {
			for k := range solo {
				total++
				row, ok := noisy.MostAccurateWithin(solo[k], j)
				trow, tok := truth.MostAccurateWithin(solo[k], j)
				if row != trow || ok != tok {
					flips++
				}
				if ok && truth.Lookup(row, j) > solo[k] {
					soloViol++
				}
				row, ok = noisy.MostAccurateWithinBatch(batch[k], j, batchN)
				if ok && truth.LookupBatch(row, j, batchN) > batch[k] {
					batchViol++
				}
			}
		}
		return 100 * (1 - float64(soloViol)/float64(total)), 100 * (1 - float64(batchViol)/float64(total)), flips
	}
	if s, b, flips := attainment(truth); s != 100 || b != 100 || flips != 0 {
		t.Errorf("noiseless table: solo %.2f%%, batch %.2f%%, %d flips; want 100, 100, 0", s, b, flips)
	}
	noisy, err := noisyTable(truth, 0.4, 52)
	if err != nil {
		t.Fatal(err)
	}
	if s, _, _ := attainment(noisy); s >= 100 {
		t.Errorf("sigma 0.40 attainment %.2f%%, want < 100 (noise must cost something)", s)
	}
}
