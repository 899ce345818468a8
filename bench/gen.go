package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"sushi/internal/core"
	"sushi/internal/sched"
	"sushi/internal/serving"
)

// Everything the benchmark feeds the system is made here, from the seed
// alone: the two constraint mixes, the request bodies built from them,
// the arrival-process parameters and the forward cycle. The server only
// ever sees the generated bodies.

// modelSpec is what the generator needs to know about one served model:
// the accuracy span of its frontier and the latency-budget span the
// mixes draw from (1.05x the fastest to 1.5x the slowest frontier row).
type modelSpec struct {
	// Name is the request's "model" field ("" on single-model fleets).
	Name string
	// Acc holds the frontier accuracies, ascending (top-1 percent).
	Acc []float64
	// Names holds the frontier SubNet names, row-aligned with Acc.
	Names []string
	// LatLoMS, LatHiMS bound the latency budgets in milliseconds.
	LatLoMS, LatHiMS float64
	// RowMS holds each frontier row's service latency under the boot
	// cache column, row-aligned with Acc (ascending, like accuracy);
	// FastestMS and SlowestMS are its extremes.
	RowMS                []float64
	FastestMS, SlowestMS float64
}

// modelSpecs reads every co-hosted model's frontier and latency span
// off replica 0's tables (each model's first hardware group).
func modelSpecs(dep *core.ClusterDeployment) []modelSpec {
	specs := make([]modelSpec, 0, len(dep.Models))
	dep.Cluster.Replicas()[0].InspectTenants(func(model string, _ int64, sys *serving.System) {
		t := sys.Table()
		ms := modelSpec{Name: model, FastestMS: math.Inf(1)}
		for i := 0; i < t.Rows(); i++ {
			ms.Acc = append(ms.Acc, t.SubNets[i].Accuracy)
			ms.Names = append(ms.Names, t.SubNets[i].Name)
			l := t.Lookup(i, 0) * 1e3
			ms.RowMS = append(ms.RowMS, l)
			ms.FastestMS = math.Min(ms.FastestMS, l)
			ms.SlowestMS = math.Max(ms.SlowestMS, l)
		}
		ms.LatLoMS, ms.LatHiMS = 1.05*ms.FastestMS, 1.5*ms.SlowestMS
		specs = append(specs, ms)
	})
	return specs
}

// genQuery is one generated request line.
type genQuery struct {
	Model    string
	MinAcc   float64
	MaxLatMS float64
	Policy   string
}

// schedQuery is the scheduler query the server decodes this line into
// (the in-process level replays feed it directly).
func (g genQuery) schedQuery(id int) sched.Query {
	q := sched.Query{ID: id, Model: g.Model, MinAccuracy: g.MinAcc, MaxLatency: g.MaxLatMS * 1e-3}
	switch g.Policy {
	case "acc":
		p := sched.StrictAccuracy
		q.Policy = &p
	case "lat":
		p := sched.StrictLatency
		q.Policy = &p
	case "energy":
		p := sched.MinEnergy
		q.Policy = &p
	}
	return q
}

// appendJSON renders the line as the /v1/serve request body. Floats use
// the shortest round-tripping form, so the server decodes exactly the
// float64 the generator drew.
func (g genQuery) appendJSON(b []byte) []byte {
	b = append(b, '{')
	if g.Model != "" {
		b = append(b, `"model":"`...)
		b = append(b, g.Model...)
		b = append(b, `",`...)
	}
	b = append(b, `"min_accuracy":`...)
	b = strconv.AppendFloat(b, g.MinAcc, 'g', -1, 64)
	b = append(b, `,"max_latency_ms":`...)
	b = strconv.AppendFloat(b, g.MaxLatMS, 'g', -1, 64)
	if g.Policy != "" {
		b = append(b, `,"policy":"`...)
		b = append(b, g.Policy...)
		b = append(b, '"')
	}
	return append(b, '}')
}

// The discrete mix has 36 classes: 3 accuracy floors x 12 latency
// budgets.
const (
	classAccLevels = 3
	classLatLevels = 12
	classesPerMix  = classAccLevels * classLatLevels
)

// classBudgets are the mix's 12 latency budgets: one 40% of the way from
// each frontier row's latency to the next row's (so every row is the
// most accurate one some budget admits), the rest in geometric steps
// from 1.05x to 1.5x the slowest row.
func classBudgets(m modelSpec) []float64 {
	rows := append([]float64(nil), m.RowMS...)
	sort.Float64s(rows)
	var out []float64
	for i := 0; i+1 < len(rows) && len(out) < classLatLevels-1; i++ {
		out = append(out, rows[i]+0.4*(rows[i+1]-rows[i]))
	}
	top := classLatLevels - len(out)
	lo, hi := 1.05*m.SlowestMS, m.LatHiMS
	for i := 0; i < top; i++ {
		f := 1.0
		if top > 1 {
			f = float64(i) / float64(top-1)
		}
		out = append(out, lo*math.Pow(hi/lo, f))
	}
	return out
}

// classTable lists the 36 (A_t, L_t) classes of one model: accuracy
// floors evenly spaced over the frontier's accuracy span, crossed with
// classBudgets.
func classTable(m modelSpec) []genQuery {
	out := make([]genQuery, 0, classesPerMix)
	accLo, accHi := m.Acc[0], m.Acc[len(m.Acc)-1]
	for a := 0; a < classAccLevels; a++ {
		acc := accLo + (accHi-accLo)*float64(a)/float64(classAccLevels-1)
		for _, lat := range classBudgets(m) {
			out = append(out, genQuery{Model: m.Name, MinAcc: acc, MaxLatMS: lat})
		}
	}
	return out
}

// genClasses draws n queries uniformly from the model's 36 classes —
// the mix whose constraints repeat, so every exact-bits decision memo
// hits after the first few dozen queries.
func genClasses(seed int64, m modelSpec, n int) []genQuery {
	rng := rand.New(rand.NewSource(seed))
	classes := classTable(m)
	out := make([]genQuery, n)
	for i := range out {
		out[i] = classes[rng.Intn(len(classes))]
	}
	return out
}

// policies are the per-request overrides the continuous mix cycles
// through at random.
var policies = []string{"acc", "lat", "energy"}

// genContinuous draws n queries with a random model, a random policy
// and (A_t, L_t) uniform over the model's spans: no two lines carry the
// same constraint bits, so an exact-bits memo never hits.
func genContinuous(seed int64, ms []modelSpec, n int) []genQuery {
	rng := rand.New(rand.NewSource(seed))
	out := make([]genQuery, n)
	for i := range out {
		m := ms[rng.Intn(len(ms))]
		accLo, accHi := m.Acc[0], m.Acc[len(m.Acc)-1]
		out[i] = genQuery{
			Model:    m.Name,
			MinAcc:   accLo + rng.Float64()*(accHi-accLo),
			MaxLatMS: m.LatLoMS + rng.Float64()*(m.LatHiMS-m.LatLoMS),
			Policy:   policies[rng.Intn(len(policies))],
		}
	}
	return out
}

// singleBodies renders one /v1/serve body per query.
func singleBodies(qs []genQuery) [][]byte {
	out := make([][]byte, len(qs))
	for i, q := range qs {
		out[i] = q.appendJSON(nil)
	}
	return out
}

// batchBodies renders /v1/serve/batch NDJSON bodies of `lines` queries
// each (len(qs) must be a multiple of lines).
func batchBodies(qs []genQuery, lines int) [][]byte {
	out := make([][]byte, 0, len(qs)/lines)
	for i := 0; i+lines <= len(qs); i += lines {
		var b []byte
		for _, q := range qs[i : i+lines] {
			b = q.appendJSON(b)
			b = append(b, '\n')
		}
		out = append(out, b)
	}
	return out
}

// streamDigest is the sha256 of the request stream in send order — the
// fingerprint that pins "same seed, same inputs".
func streamDigest(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		h.Write(b)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// subSeed derives an independent stream seed for one named purpose
// (splitmix64 over the run seed and a purpose tag), so the mixes, the
// arrival processes and the input image never share RNG state.
func subSeed(seed int64, tag uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(tag+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1) // non-negative: the repo's seeds reject negatives
}
