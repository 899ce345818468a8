// Package core orchestrates complete SUSHI deployments and hosts the
// experiment harness that regenerates every table and figure of the
// paper's evaluation. It is the layer shared by the public sushi package,
// the cmd/ tools and the repository benchmarks.
package core

import (
	"fmt"

	"sushi/internal/accel"
	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/supernet"
)

// OptionError is the typed rejection for invalid deployment options;
// callers (the HTTP surface, cmd tools) can distinguish bad input from
// internal failures with errors.As.
type OptionError struct {
	// Field names the offending option.
	Field string
	// Value is the rejected value.
	Value any
	// Reason says what would be acceptable.
	Reason string
}

// Error implements error.
func (e *OptionError) Error() string {
	return fmt.Sprintf("core: invalid option %s=%v: %s", e.Field, e.Value, e.Reason)
}

// Workload identifies a SuperNet family.
type Workload string

const (
	// ResNet50 is the weight-shared OFA-ResNet50 family.
	ResNet50 Workload = "resnet50"
	// MobileNetV3 is the weight-shared OFA-MobileNetV3 family.
	MobileNetV3 Workload = "mobilenetv3"
)

// BuildSuperNet constructs the named SuperNet.
func BuildSuperNet(w Workload) (*supernet.SuperNet, error) {
	switch w {
	case ResNet50:
		return supernet.NewOFAResNet50(), nil
	case MobileNetV3:
		return supernet.NewOFAMobileNetV3(), nil
	default:
		return nil, &OptionError{Field: "Workload", Value: w,
			Reason: fmt.Sprintf("must be %q or %q", ResNet50, MobileNetV3)}
	}
}

// DeployOptions selects the deployment's hardware and policy.
type DeployOptions struct {
	// Workload picks the SuperNet family (default ResNet50).
	Workload Workload
	// Accel is the accelerator configuration (default ZCU104).
	Accel *accel.Config
	// Policy is the scheduling policy (default StrictAccuracy).
	Policy sched.Policy
	// Q is the cache-update period (default 4).
	Q int
	// Mode is the system variant (default Full).
	Mode serving.Mode
	// Candidates is |S| (default 16).
	Candidates int
	// Seed drives candidate generation (default 1).
	Seed int64
	// ChargeSwapLatency accounts cache-fill time on the query path.
	ChargeSwapLatency bool
}

// normalize validates the options and fills defaults. Zero values select
// defaults; negative values that older versions silently clamped are now
// typed errors.
func (opt *DeployOptions) normalize() error {
	if opt.Workload == "" {
		opt.Workload = ResNet50
	}
	if opt.Q < 0 {
		return &OptionError{Field: "Q", Value: opt.Q, Reason: "cache-update period must be positive (0 selects the default 4)"}
	}
	if opt.Q == 0 {
		opt.Q = 4
	}
	if opt.Candidates < 0 {
		return &OptionError{Field: "Candidates", Value: opt.Candidates, Reason: "candidate count must be positive (0 selects the default 16)"}
	}
	if opt.Candidates == 0 {
		opt.Candidates = 16
	}
	if opt.Seed < 0 {
		return &OptionError{Field: "Seed", Value: opt.Seed, Reason: "seed must be non-negative (0 selects the default 1)"}
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	switch opt.Mode {
	case serving.Full, serving.StateUnaware, serving.NoPB:
	default:
		return &OptionError{Field: "Mode", Value: opt.Mode, Reason: "must be Full, StateUnaware or NoPB"}
	}
	switch opt.Policy {
	case sched.StrictAccuracy, sched.StrictLatency, sched.MinEnergy:
	default:
		return &OptionError{Field: "Policy", Value: opt.Policy, Reason: "must be StrictAccuracy, StrictLatency or MinEnergy"}
	}
	return nil
}

// servingOptions translates deploy options into the serving layer's.
func (opt DeployOptions) servingOptions(cfg accel.Config) serving.Options {
	return serving.Options{
		Accel:             cfg,
		Policy:            opt.Policy,
		Q:                 opt.Q,
		Mode:              opt.Mode,
		Candidates:        opt.Candidates,
		Seed:              opt.Seed,
		ChargeSwapLatency: opt.ChargeSwapLatency,
	}
}

// accelConfig resolves the accelerator configuration.
func (opt DeployOptions) accelConfig() accel.Config {
	if opt.Accel != nil {
		return *opt.Accel
	}
	return defaultSetting.board
}

// setting is the hardware of the paper's evaluation, one configuration
// per role: board is the serving board (§5.4-5.7), study the §5.2
// roofline-study configuration and scaleUp §5.4.2's datacenter card.
// Every experiment reads its hardware from a setting.
type setting struct {
	board, study, scaleUp accel.Config
}

// defaultSetting is the paper's: the one place this package names the
// accel presets. Experiment runs at it; only tests build another.
var defaultSetting = setting{board: accel.ZCU104(), study: accel.RooflineStudy(), scaleUp: accel.AlveoU50()}

// options is what a deployment of opt on s's board serves with:
// normalize fills each field opt leaves zero with its default.
func (s setting) options(opt DeployOptions) (serving.Options, error) {
	if err := opt.normalize(); err != nil {
		return serving.Options{}, err
	}
	return opt.servingOptions(s.board), nil
}
