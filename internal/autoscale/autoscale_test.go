package autoscale

import "testing"

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  *Config
		ok   bool
	}{
		{"nil config", nil, true},
		{"valid", &Config{Min: 2, Max: 8, Interval: 1}, true},
		{"min zero", &Config{Min: 0, Max: 4, Interval: 1}, false},
		{"max below min", &Config{Min: 4, Max: 2, Interval: 1}, false},
		{"zero interval", &Config{Min: 1, Max: 4}, false},
		{"negative cooldown", &Config{Min: 1, Max: 4, Interval: 1, Cooldown: -1}, false},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%t", tc.name, err, tc.ok)
		}
	}
}

func TestConfigEnabled(t *testing.T) {
	if (&Config{Min: 2, Max: 2, Policy: Saturation{}, Interval: 1}).Enabled() {
		t.Error("Min == Max must disable scaling")
	}
	if (&Config{Min: 2, Max: 8, Interval: 1}).Enabled() {
		t.Error("nil policy must disable scaling")
	}
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Error("nil config must disable scaling")
	}
	if !(&Config{Min: 2, Max: 8, Policy: Saturation{}, Interval: 1}).Enabled() {
		t.Error("Min < Max with a policy must enable scaling")
	}
}

func TestMetricsHelpers(t *testing.T) {
	m := Metrics{Interval: 2, Completions: 10, SLOMet: 9, QueueDepth: 6, PrevQueueDepth: 2}
	if got := m.Attainment(); got != 0.9 {
		t.Errorf("Attainment() = %g, want 0.9", got)
	}
	if got := m.QueueGrowthRate(); got != 2 {
		t.Errorf("QueueGrowthRate() = %g, want 2", got)
	}
	idle := Metrics{Interval: 2}
	if got := idle.Attainment(); got != 1 {
		t.Errorf("idle Attainment() = %g, want 1 (no completions, no misses)", got)
	}
}

func TestTargetUtilization(t *testing.T) {
	p := TargetUtilization{}
	// 7 active at 100% busy against the 0.7 set-point wants 10.
	if got := p.Desired(Metrics{Active: 7, Utilization: 1}); got != 10 {
		t.Errorf("Desired = %d, want 10", got)
	}
	// 4 active at 10% busy wants 1.
	if got := p.Desired(Metrics{Active: 4, Utilization: 0.1}); got != 1 {
		t.Errorf("Desired = %d, want 1", got)
	}
	// At the set-point the fleet holds.
	if got := p.Desired(Metrics{Active: 7, Utilization: 0.7}); got != 7 {
		t.Errorf("at-target Desired = %d, want 7", got)
	}
	// An empty fleet asks for its floor.
	if got := p.Desired(Metrics{Min: 2}); got != 2 {
		t.Errorf("empty-fleet Desired = %d, want Min 2", got)
	}
}

func TestSLOAttainment(t *testing.T) {
	p := SLOAttainment{}
	// Missing the SLO floor adds a replica.
	if got := p.Desired(Metrics{Active: 3, Completions: 100, SLOMet: 90}); got != 4 {
		t.Errorf("Desired = %d, want 4 on SLO miss", got)
	}
	// Meeting SLO while idle and empty sheds one.
	if got := p.Desired(Metrics{Active: 3, Completions: 100, SLOMet: 100, Utilization: 0.2}); got != 2 {
		t.Errorf("Desired = %d, want 2 when idle", got)
	}
	// Meeting SLO with backlog holds steady.
	if got := p.Desired(Metrics{Active: 3, Completions: 100, SLOMet: 100, Utilization: 0.2, QueueDepth: 5}); got != 3 {
		t.Errorf("Desired = %d, want 3 with backlog", got)
	}
}

func TestSaturation(t *testing.T) {
	p := Saturation{}
	// A growing queue deeper than the fleet adds capacity.
	if got := p.Desired(Metrics{Interval: 1, Active: 2, QueueDepth: 5, PrevQueueDepth: 1}); got != 3 {
		t.Errorf("Desired = %d, want 3 on queue growth", got)
	}
	// Empty and quiet sheds.
	if got := p.Desired(Metrics{Interval: 1, Active: 4, Utilization: 0.1}); got != 3 {
		t.Errorf("Desired = %d, want 3 when drained", got)
	}
	// Steady backlog holds.
	if got := p.Desired(Metrics{Interval: 1, Active: 4, QueueDepth: 3, PrevQueueDepth: 3, Utilization: 0.9}); got != 4 {
		t.Errorf("Desired = %d, want 4 at steady state", got)
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]string{
		"utilization":        "utilization",
		"target-utilization": "utilization",
		"slo":                "slo",
		"slo-attainment":     "slo",
		"saturation":         "saturation",
		"queue-growth":       "saturation",
	} {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		if p.Name() != want {
			t.Errorf("ParsePolicy(%q).Name() = %q, want %q", name, p.Name(), want)
		}
	}
	if _, err := ParsePolicy("vibes"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
}
