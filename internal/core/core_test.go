package core

import (
	"context"
	"strings"
	"testing"

	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/workload"
)

func TestBuildSuperNet(t *testing.T) {
	for _, w := range []Workload{ResNet50, MobileNetV3} {
		s, err := BuildSuperNet(w)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumLayers() == 0 {
			t.Errorf("%s: empty supernet", w)
		}
	}
	if _, err := BuildSuperNet("vgg"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// soloSystem returns the one system of a single-model deployment's
// replica 0.
func soloSystem(dep *ClusterDeployment) *serving.System {
	var sys *serving.System
	dep.Cluster.Replicas()[0].Inspect(func(s *serving.System) { sys = s })
	return sys
}

// TestDeployDefaultsAndServe: a default deployment is one accelerator.
func TestDeployDefaultsAndServe(t *testing.T) {
	d, err := DeployCluster(DeployOptions{Workload: MobileNetV3}, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Frontier) != 7 || d.Cluster.Size() != 1 {
		t.Fatalf("frontier size %d, %d replicas", len(d.Frontier), d.Cluster.Size())
	}
	ctx := context.Background()
	r, err := d.Cluster.Serve(ctx, sched.Query{ID: 0, MinAccuracy: 77, MaxLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.SubNet == "" || r.Latency <= 0 {
		t.Fatalf("degenerate result %+v", r)
	}
	rs, err := d.Cluster.ServeAll(ctx, []sched.Query{
		{ID: 1, MinAccuracy: 76, MaxLatency: 1},
		{ID: 2, MinAccuracy: 79, MaxLatency: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("served %d", len(rs))
	}
	// Higher constraint must not serve lower accuracy.
	if rs[1].Accuracy < rs[0].Accuracy {
		t.Error("accuracy ordering violated")
	}
}

// TestDeployModes: each system variant reaches the replica. NoPB runs
// without a Persistent Buffer, and the three variants serve one stream
// three different ways (Fig. 16's comparison).
func TestDeployModes(t *testing.T) {
	qs, err := workload.Uniform(200, workload.Range{Lo: 74, Hi: 80}, workload.Range{Lo: 2e-3, Hi: 12e-3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]float64]serving.Mode{}
	for _, m := range []serving.Mode{serving.Full, serving.StateUnaware, serving.NoPB} {
		d, err := DeployCluster(DeployOptions{Workload: MobileNetV3, Mode: m}, ClusterOptions{})
		if err != nil {
			t.Fatalf("mode %v: %v", m, err)
		}
		if pb := soloSystem(d).Simulator().Config().PBBytes; (pb == 0) != (m == serving.NoPB) {
			t.Errorf("mode %v: PB of %d bytes", m, pb)
		}
		rs, err := d.Cluster.ServeAll(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		sum := serving.Summarize(rs)
		key := [2]float64{sum.AvgLatency, sum.AvgHitRatio}
		if prev, ok := seen[key]; ok {
			t.Errorf("modes %v and %v serve the stream alike", prev, m)
		}
		seen[key] = m
	}
	if _, err := DeployCluster(DeployOptions{Workload: "bogus"}, ClusterOptions{}); err == nil {
		t.Error("bogus workload accepted")
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{
		Name:   "t",
		Title:  "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	s := r.String()
	for _, want := range []string{"demo", "long-header", "333", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestResultCSV(t *testing.T) {
	r := &Result{
		Name:   "t",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "x,y"}, {"2", "z"}},
		Notes:  []string{"note text"},
	}
	var buf strings.Builder
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"a,b\n", `"x,y"`, "# note text\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("csv missing %q:\n%s", want, out)
		}
	}
}
