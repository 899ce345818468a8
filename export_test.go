package sushi

// In-package test bridges for the external sushi_test package.
// Compiled only into tests; none of this is public API.

import (
	"sushi/internal/calib"
	"sushi/internal/core"
	"sushi/internal/latencytable"
	"sushi/internal/serving"
)

// ClusterTableForTest returns replica 0's latency table — the exact
// table the deployment decides from, analytic or measured.
func ClusterTableForTest(c *Cluster) *latencytable.Table {
	var t *latencytable.Table
	c.d.Cluster.Replicas()[0].Inspect(func(s *serving.System) { t = s.Table() })
	return t
}

// AnalyticRoundTripForTest wraps t in the on-disk calibration envelope
// (kind "analytic"), writes it to path, and loads it back through the
// same decoder sushi-server -table uses — the full disk round trip a
// measured table would take, applied to an analytic table so identity
// can be pinned.
func AnalyticRoundTripForTest(t *latencytable.Table, w Workload, path string) (*latencytable.Table, error) {
	f, err := calib.FromTable(t, string(w))
	if err != nil {
		return nil, err
	}
	if err := calib.WriteFile(path, f); err != nil {
		return nil, err
	}
	rt, _, err := core.LoadTableFile(path)
	return rt, err
}
