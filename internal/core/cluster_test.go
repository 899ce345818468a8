package core

import (
	"context"
	"errors"
	"testing"

	"sushi/internal/accel"
	"sushi/internal/latencytable"
	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/workload"
)

func TestDeployOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  DeployOptions
	}{
		{"negative Q", DeployOptions{Q: -1}},
		{"negative Candidates", DeployOptions{Candidates: -3}},
		{"negative Seed", DeployOptions{Seed: -7}},
		{"bogus Mode", DeployOptions{Mode: serving.Mode(9)}},
		{"bogus Policy", DeployOptions{Policy: sched.Policy(9)}},
		{"bogus Workload", DeployOptions{Workload: "alexnet"}},
	}
	for _, tc := range cases {
		_, err := DeployCluster(tc.opt, ClusterOptions{})
		if err == nil {
			t.Errorf("%s accepted", tc.name)
			continue
		}
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Errorf("%s: error %v is not an *OptionError", tc.name, err)
		}
	}
}

func TestDeployClusterValidation(t *testing.T) {
	if _, err := DeployCluster(DeployOptions{}, ClusterOptions{Replicas: -2}); err == nil {
		t.Error("negative replica count accepted")
	}
	_, err := DeployCluster(DeployOptions{}, ClusterOptions{Router: "telepathy"})
	var oe *OptionError
	if !errors.As(err, &oe) || oe.Field != "Router" {
		t.Errorf("unknown router: got %v", err)
	}
	// Per-replica hardware must match the replica count.
	_, err = DeployCluster(DeployOptions{}, ClusterOptions{
		Replicas: 3, Accels: []accel.Config{accel.ZCU104()}})
	if !errors.As(err, &oe) || oe.Field != "Accels" {
		t.Errorf("mismatched Accels length: got %v", err)
	}
	// An invalid per-replica configuration is rejected up front.
	_, err = DeployCluster(DeployOptions{}, ClusterOptions{Accels: []accel.Config{{}}})
	if !errors.As(err, &oe) || oe.Field != "Accels" {
		t.Errorf("invalid Accel config: got %v", err)
	}
	// MinGain >= 1 would silently disable latency-driven switching.
	_, err = DeployCluster(DeployOptions{}, ClusterOptions{
		Recache: &serving.RecachePolicy{MinGain: 1.5}})
	if !errors.As(err, &oe) || oe.Field != "Recache" {
		t.Errorf("out-of-range MinGain: got %v", err)
	}
}

// TestDeployClusterRejectsMoreReplicasThanColumns covers the bugfix:
// replica i used to boot on cache column i mod columns, silently reusing
// SubGraphs when the fleet outgrew the table; now that is a typed
// OptionError.
func TestDeployClusterRejectsMoreReplicasThanColumns(t *testing.T) {
	_, err := DeployCluster(
		DeployOptions{Workload: MobileNetV3, Candidates: 4},
		ClusterOptions{Replicas: 6})
	var oe *OptionError
	if !errors.As(err, &oe) {
		t.Fatalf("6 replicas on a 4-column table: want *OptionError, got %v", err)
	}
	if oe.Field != "Replicas" {
		t.Errorf("OptionError field %q, want Replicas", oe.Field)
	}
	// The boundary case still deploys, with all-distinct boot columns.
	dep, err := DeployCluster(
		DeployOptions{Workload: MobileNetV3, Candidates: 4},
		ClusterOptions{Replicas: 4})
	if err != nil {
		t.Fatal(err)
	}
	cols := map[int]bool{}
	for _, v := range ReplicaViews(dep.Cluster) {
		cols[v.CacheColumn] = true
	}
	if len(cols) != 4 {
		t.Errorf("boot columns not distinct: %v", cols)
	}
}

// TestDeployClusterHeterogeneous deploys a mixed fleet and checks the
// tentpole invariants: per-replica hardware in the views, one latency
// table per hardware group (shared within, distinct across), and
// distinct boot columns within each group.
func TestDeployClusterHeterogeneous(t *testing.T) {
	dep, err := DeployCluster(
		DeployOptions{Workload: MobileNetV3, Policy: sched.StrictLatency, Candidates: 8},
		ClusterOptions{
			Accels:  []accel.Config{accel.ZCU104(), accel.ZCU104(), accel.AlveoU50()},
			Router:  RouterFastest,
			Recache: &serving.RecachePolicy{Window: 8},
		})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Cluster.Size() != 3 {
		t.Fatalf("replica count %d, want 3 (inferred from Accels)", dep.Cluster.Size())
	}
	views := ReplicaViews(dep.Cluster)
	if views[0].Accel.Name != "ZCU104" || views[1].Accel.Name != "ZCU104" || views[2].Accel.Name != "AlveoU50" {
		t.Fatalf("per-replica hardware wrong: %+v", views)
	}
	if views[2].Accel.PeakOpsPerCycle <= views[0].Accel.PeakOpsPerCycle {
		t.Errorf("U50 peak ops %d should exceed ZCU104's %d",
			views[2].Accel.PeakOpsPerCycle, views[0].Accel.PeakOpsPerCycle)
	}
	var tables []*latencytable.Table
	for _, rep := range dep.Cluster.Replicas() {
		rep.Inspect(func(sys *serving.System) { tables = append(tables, sys.Table()) })
	}
	if tables[0] != tables[1] {
		t.Error("same-hardware replicas should share one latency table")
	}
	if tables[0] == tables[2] {
		t.Error("different hardware must not share a latency table")
	}
	if views[0].CacheColumn == views[1].CacheColumn {
		t.Errorf("same-group replicas share boot column %d", views[0].CacheColumn)
	}
	// The per-replica tables genuinely differ: the same (row, col) cell
	// predicts different latencies on different hardware.
	if tables[0].Lookup(0, 0) == tables[2].Lookup(0, 0) {
		t.Error("ZCU104 and AlveoU50 tables predict identical latency for cell (0,0)")
	}
	// Serving works end to end across the mixed fleet.
	qs, err := workload.Uniform(18, workload.Range{Lo: 76, Hi: 80},
		workload.Range{Lo: 2e-3, Hi: 8e-3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Cluster.ServeAll(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
}

func TestDeployClusterServes(t *testing.T) {
	dep, err := DeployCluster(DeployOptions{Workload: MobileNetV3, Policy: sched.StrictLatency},
		ClusterOptions{Replicas: 3, Router: RouterAffinity})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Cluster.Size() != 3 || dep.Cluster.RouterName() != "affinity" {
		t.Fatalf("cluster %d replicas, router %s", dep.Cluster.Size(), dep.Cluster.RouterName())
	}
	// Replicas boot with distinct cached SubGraphs (column i).
	names := map[string]bool{}
	for _, rep := range dep.Cluster.Replicas() {
		rep.Inspect(func(sys *serving.System) {
			names[NewCacheView(sys).Name] = true
		})
	}
	if len(names) < 2 {
		t.Errorf("replicas share one initial cache: %v", names)
	}
	qs, err := workload.Uniform(24, workload.Range{Lo: 76, Hi: 80},
		workload.Range{Lo: 2e-3, Hi: 8e-3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := dep.Cluster.ServeAll(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 24 {
		t.Fatalf("served %d", len(rs))
	}
	views := ReplicaViews(dep.Cluster)
	total := 0
	for _, v := range views {
		total += v.Queries
		if v.QueueDepth != 0 {
			t.Errorf("replica %d queue depth %d after drain", v.ID, v.QueueDepth)
		}
		if v.Cache.Name == "" || !v.Cache.HasBuffer {
			t.Errorf("replica %d cache view %+v", v.ID, v.Cache)
		}
	}
	if total != 24 {
		t.Errorf("replica views count %d queries, want 24", total)
	}
}

func TestViewHelpersMatchDeployment(t *testing.T) {
	dep, err := DeployCluster(DeployOptions{Workload: MobileNetV3}, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fv := FrontierView(dep.Frontier)
	if len(fv) != len(dep.Frontier) {
		t.Fatalf("frontier view %d entries", len(fv))
	}
	for i, v := range fv {
		if v.Name != dep.Frontier[i].Name || v.WeightMB <= 0 || v.GFLOPs <= 0 {
			t.Errorf("entry %d: %+v", i, v)
		}
	}
	cv := NewCacheView(soloSystem(dep))
	if cv.Name == "" || cv.Bytes <= 0 || !cv.HasBuffer {
		t.Errorf("cache view %+v", cv)
	}
	if cv.SizeMB != float64(cv.Bytes)/(1<<20) {
		t.Errorf("SizeMB %.4f inconsistent with Bytes %d", cv.SizeMB, cv.Bytes)
	}
}
