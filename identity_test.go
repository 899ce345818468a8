package sushi_test

// Bit-identity pin for the multi-tenant refactor (PR 5), in the spirit
// of PR 4's B=1 identity: single-model deployments must reproduce the
// pre-refactor engine bit for bit, per seed. The digests below were
// captured on the pre-refactor tree (commit ffd98e0) over two canonical
// configurations that together exercise the whole single-model stack —
// routing, admission control, load-aware debiting, drops, degradation,
// heterogeneous tables, re-caching and the micro-batch former. The
// digest deliberately excludes the dropped queries' Served.Query echo
// (zero before this PR; populated now so per-model drop accounting has
// a model id) — everything that determines timing, placement and
// service is covered.
//
// PR 6 (elastic fleets) extends the pin: the SAME goldens must hold
// when the deployment carries a DISABLED autoscale config (Min == Max
// == N) — see TestAutoscaleDisabledBitIdentical.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"sushi"
	"sushi/internal/core"
	"sushi/internal/workload"
)

// outcomeDigest hashes every behavioural field of a simulated run (the
// SubNet name and the service flags come back through Timed), after
// holding the run to the engine's invariants.
func outcomeDigest(t *testing.T, res *sushi.SimResult) string {
	t.Helper()
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i, rec := range res.Outcomes {
		o := res.Timed(i)
		fmt.Fprintf(h, "%d|%d|%d|%t|%d|%.12e|%.12e|%.12e|%.12e|%t\n",
			i, rec.Replica, int(rec.Reason), rec.Degraded, rec.Batch,
			o.Arrival, o.Start, o.Finish, res.Service(i).RecacheSec, o.Dropped)
		if !o.Dropped {
			fmt.Fprintf(h, "%s|%d|%.12e|%.12e|%t|%t|%t|%t|%.12e|%d|%.12e\n",
				o.SubNet, o.Row, o.Latency, o.Accuracy,
				o.Feasible, o.LatencyMet, o.CacheSwapped, o.Recached,
				o.HitRatio, o.HitBytes, o.OffChipEnergyJ)
		}
	}
	fmt.Fprintf(h, "served=%d dropped=%d degraded=%d recaches=%d\n",
		res.Served, res.Dropped, res.Degraded, res.Recaches)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// identityRuns are the pinned configurations. Each builds a FRESH
// deployment (runs mutate cache state) and simulates a seeded stream;
// extra cluster options compose onto the base deployment so the same
// run can be replayed with a pinned (Min == Max) autoscale config.
var identityRuns = []struct {
	name   string
	golden string
	run    func(t *testing.T, extra ...sushi.ClusterOption) *sushi.SimResult
}{
	{
		name:   "homogeneous-mbv3-degrade",
		golden: "0e71fc8a2c8c10705feab058cdd5d4ef90b76d5048120204e6a2a64823e752fa",
		run: func(t *testing.T, extra ...sushi.ClusterOption) *sushi.SimResult {
			opts := append([]sushi.ClusterOption{sushi.WithReplicas(4)}, extra...)
			c, err := sushi.NewCluster(sushi.Options{Workload: sushi.MobileNetV3}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			qs, err := sushi.UniformWorkload(300,
				sushi.Range{Lo: 60, Hi: 80}, sushi.Range{Lo: 5e-3, Hi: 50e-3}, 7)
			if err != nil {
				t.Fatal(err)
			}
			arr, err := (sushi.OnOff{OnRate: 900, OffRate: 120, MeanOn: 0.12, MeanOff: 0.12}).Times(300, 7)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := sushi.TimedStream(qs, arr)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Simulate(stream, sushi.SimOptions{
				QueueCap:  4,
				Admission: sushi.AdmitDegrade,
				LoadAware: true,
				Drop:      true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
	},
	{
		name:   "multitenant-shared-traffic",
		golden: "8ba9902f121fda70153b510f56f6eac547c969024782fe31f2873371997478c5",
		run: func(t *testing.T, extra ...sushi.ClusterOption) *sushi.SimResult {
			opts := append([]sushi.ClusterOption{
				sushi.WithModels(sushi.ResNet50, sushi.MobileNetV3),
				sushi.WithReplicas(4),
				sushi.WithRouter(sushi.LeastLoaded),
				sushi.WithPartition(sushi.PartitionPolicy{Mode: sushi.PartitionTraffic}),
			}, extra...)
			c, err := sushi.NewCluster(sushi.Options{}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			// Anti-phase diurnal per-model streams: one model peaks while
			// the other troughs — the consolidation scenario that drives
			// traffic-weighted PB stealing.
			mix := sushi.Mix{Components: []sushi.MixComponent{
				{Model: string(sushi.ResNet50),
					Process: sushi.Diurnal{BaseRate: 60, Amplitude: 0.8, Period: 4}},
				{Model: string(sushi.MobileNetV3),
					Process: sushi.Diurnal{BaseRate: 120, Amplitude: 0.8, Period: 4, Phase: 3.14159265}},
			}}
			times, labels, err := mix.Labeled(300, 13)
			if err != nil {
				t.Fatal(err)
			}
			budget := map[string]float64{
				string(sushi.ResNet50):    60e-3,
				string(sushi.MobileNetV3): 20e-3,
			}
			qs := make([]sushi.TimedQuery, len(times))
			for i := range qs {
				qs[i] = sushi.TimedQuery{
					Query:   sushi.Query{ID: i, Model: labels[i], MaxLatency: budget[labels[i]]},
					Arrival: times[i],
				}
			}
			res, err := c.Simulate(qs, sushi.SimOptions{
				QueueCap:  3,
				Admission: sushi.AdmitReject,
				LoadAware: true,
				Drop:      true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
	},
	{
		name:   "hetero-rn50-recache-batched",
		golden: "5b4ed29d7a561e3a6a52280ac868ca53b38c1111d53f06086ee0e8a6a4f3114b",
		run: func(t *testing.T, extra ...sushi.ClusterOption) *sushi.SimResult {
			opts := append([]sushi.ClusterOption{
				sushi.WithHardware(sushi.ZCU104(), sushi.ZCU104(), sushi.AlveoU50(), sushi.AlveoU50()),
				sushi.WithRouter(sushi.Fastest),
				sushi.WithRecache(sushi.RecachePolicy{Window: 12, MinGain: 0.02, Cooldown: 12}),
				sushi.WithBatching(4, 10*time.Millisecond),
			}, extra...)
			c, err := sushi.NewCluster(sushi.Options{Workload: sushi.ResNet50}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			qs, err := sushi.DriftingWorkload(300,
				sushi.Range{}, sushi.Range{},
				sushi.Range{Lo: 40e-3, Hi: 60e-3}, sushi.Range{Lo: 5e-3, Hi: 15e-3}, 11)
			if err != nil {
				t.Fatal(err)
			}
			arr, err := (sushi.Poisson{Rate: 250}).Times(300, 11)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := sushi.TimedStream(qs, arr)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Simulate(stream, sushi.SimOptions{
				QueueCap:  6,
				Admission: sushi.AdmitShedOldest,
				LoadAware: true,
				Drop:      true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
	},
}

// instantDigest hashes the bits of every timing field Timed reads back
// — Arrival, Start, Finish, E2ELatency, QueueDelay and MaxLatency — so
// a one-ulp slip that outcomeDigest's %.12e cannot see still shows.
func instantDigest(t *testing.T, res *sushi.SimResult) string {
	t.Helper()
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b []byte
	for i := range res.Outcomes {
		o := res.Timed(i)
		b = b[:0]
		for _, v := range []float64{o.Arrival, o.Start, o.Finish, o.E2ELatency, o.QueueDelay, o.Query.MaxLatency} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestInstantBits pins each identity run's instants bit for bit: the
// record stores Finish, E2ELatency and MaxLatency, and Timed derives
// Arrival, Start and QueueDelay from them, so the derivation (and its
// exceptions) must reproduce the engine's float64s exactly.
func TestInstantBits(t *testing.T) {
	golden := map[string]string{
		"homogeneous-mbv3-degrade":    "647e6c6a4fb16a7085cd1341cdb26976464ca9052e577baeac16b51fb761a9d7",
		"multitenant-shared-traffic":  "d528ca1128f0540f2147230f47be11907c2f80657a78e678ffde4e8e0a59d0db",
		"hetero-rn50-recache-batched": "72ebe0f8663b2754b5c0561bdd7b58e864fc61d2ad1777adbfee3be2e5066495",
	}
	for _, ir := range identityRuns {
		t.Run(ir.name, func(t *testing.T) {
			if got := instantDigest(t, ir.run(t)); got != golden[ir.name] {
				t.Errorf("instants diverged from their pin:\n  got    %s\n  golden %s", got, golden[ir.name])
			}
		})
	}
}

// TestSingleModelBitIdentical is the refactor's safety property: a
// deployment that never names a model (no WithModels) must reproduce
// the pre-refactor outcomes bit for bit, per seed.
func TestSingleModelBitIdentical(t *testing.T) {
	for _, ir := range identityRuns {
		t.Run(ir.name, func(t *testing.T) {
			got := outcomeDigest(t, ir.run(t))
			if got != ir.golden {
				t.Errorf("single-model run diverged from the pre-refactor pin:\n  got    %s\n  golden %s", got, ir.golden)
			}
		})
	}
}

// TestSingleCohortPoissonClusterIdentity is PR 8's inert-layer pin at
// cluster level: a one-cohort Poisson Population driven through
// core's lazy SimulatePopulation path must reproduce — bit for bit —
// a plain Simulate over Poisson arrivals carrying the same constant
// budget/accuracy marks. Single-value Empiricals make the marks deterministic, so the
// two runs present identical streams; any digest divergence means the
// cohort layer perturbed arrival or mint order.
func TestSingleCohortPoissonClusterIdentity(t *testing.T) {
	const (
		n    = 300
		rate = 400.0
		seed = int64(19)
	)
	deploy := func() *core.ClusterDeployment {
		dep, err := core.DeployCluster(core.DeployOptions{Workload: core.MobileNetV3},
			core.ClusterOptions{Replicas: 4})
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}
	opt := sushi.SimOptions{
		QueueCap:  4,
		Admission: sushi.AdmitDegrade,
		LoadAware: true,
		Drop:      true,
	}
	pop := workload.Population{Cohorts: []workload.Cohort{{
		Rate:     rate,
		SLOClass: "gold",
		Budget:   workload.Empirical{Values: []float64{12e-3}},
		Accuracy: workload.Empirical{Values: []float64{65}},
	}}}
	viaPop, err := deploy().SimulatePopulation(n, pop, seed, opt)
	if err != nil {
		t.Fatal(err)
	}

	arr, err := (sushi.Poisson{Rate: rate}).Times(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]sushi.TimedQuery, n)
	for i := range qs {
		qs[i] = sushi.TimedQuery{
			Query:   sushi.Query{ID: i, Class: "gold", MaxLatency: 12e-3, MinAccuracy: 65},
			Arrival: arr[i],
		}
	}
	viaPlain, err := deploy().Simulate(qs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if dp, ds := outcomeDigest(t, viaPop), outcomeDigest(t, viaPlain); dp != ds {
		t.Errorf("single-cohort population diverged from plain Poisson:\n  population %s\n  plain      %s", dp, ds)
	}
}

// TestCohortPopulationGoldenDigest pins the full cohort path — a
// skewed multi-class population attached to a multi-tenant fleet
// (ClusterOptions.Cohorts, the field sushi-server -cohorts sets) and
// simulated from the deployment's own population — to a digest
// captured on the tree that introduced it. Any change to cohort RNG derivation, mark
// drawing, label threading or merge order shows up here.
func TestCohortPopulationGoldenDigest(t *testing.T) {
	const golden = "9749e4d9b6577059f619c541db7db4ea3171dc45dec5b15a2f95a94556a72290"
	dep, err := core.DeployCluster(core.DeployOptions{}, core.ClusterOptions{
		Models:   []core.Workload{core.ResNet50, core.MobileNetV3},
		Replicas: 4,
		Router:   core.RouterLeastLoaded,
		Cohorts: &workload.Population{Cohorts: []workload.Cohort{
			{Rate: 120, SLOClass: "gold", Model: string(core.MobileNetV3),
				InterArrival: workload.IAGamma, Shape: 0.3,
				Budget: workload.Empirical{Values: []float64{10e-3, 20e-3}, Weights: []float64{3, 1}}},
			{Rate: 60, SLOClass: "silver", Model: string(core.ResNet50),
				InterArrival: workload.IAWeibull, Shape: 0.7,
				Budget: workload.Empirical{Values: []float64{60e-3}}},
			{Rate: 40, SLOClass: "batch", Model: string(core.MobileNetV3),
				Budget:   workload.Empirical{Values: []float64{40e-3}},
				Accuracy: workload.Empirical{Values: []float64{60, 70}}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dep.SimulatePopulation(400, *dep.Cohorts, 31, sushi.SimOptions{
		QueueCap:  4,
		Admission: sushi.AdmitReject,
		LoadAware: true,
		Drop:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := outcomeDigest(t, res); got != golden {
		t.Errorf("cohort population run diverged from its pin:\n  got    %s\n  golden %s", got, golden)
	}
	// The classed breakdown must be present and cover every cohort class.
	if len(res.Summary.PerClass) != 3 {
		t.Fatalf("got %d SLO classes, want 3: %+v", len(res.Summary.PerClass), res.Summary.PerClass)
	}
	if res.Summary.FairnessJain <= 0 || res.Summary.FairnessJain > 1 {
		t.Errorf("Jain index %g outside (0, 1]", res.Summary.FairnessJain)
	}
}

// TestAutoscaleDisabledBitIdentical is the elastic-fleet safety
// property: the SAME goldens must hold when every deployment carries a
// pinned autoscale config (Min == Max == replica count). A pinned
// config is Enabled() == false, so no evaluation events fire, no
// replica ever leaves Active, and the engine takes the fixed-fleet
// fast path — across homogeneous, multi-tenant and
// hetero+recache+batched configurations.
func TestAutoscaleDisabledBitIdentical(t *testing.T) {
	pin := sushi.WithAutoscale(sushi.AutoscaleOptions{
		Min: 4, Max: 4, Policy: "utilization", Interval: 0.05,
	})
	for _, ir := range identityRuns {
		t.Run(ir.name, func(t *testing.T) {
			got := outcomeDigest(t, ir.run(t, pin))
			if got != ir.golden {
				t.Errorf("Min == Max autoscale run diverged from the fixed-fleet pin:\n  got    %s\n  golden %s", got, ir.golden)
			}
		})
	}
}
