package core

import (
	"fmt"

	"sushi/internal/accel"
	"sushi/internal/autoscale"
	"sushi/internal/latencytable"
	"sushi/internal/serving"
	"sushi/internal/supernet"
	"sushi/internal/workload"
)

// Routing policy names accepted by ClusterOptions.Router and the cmd
// tools' -router flag.
const (
	RouterRoundRobin  = "round-robin"
	RouterLeastLoaded = "least-loaded"
	RouterAffinity    = "affinity"
	RouterRandom      = "random"
	// RouterFastest is the hardware-aware policy: minimum predicted
	// service latency from each replica's OWN latency table, scaled by
	// queue depth — the natural dispatcher for heterogeneous fleets.
	RouterFastest = "fastest"
)

// ClusterOptions sizes a multi-replica deployment.
type ClusterOptions struct {
	// Replicas is the deployment count R (default 1, or len(Accels) when
	// per-replica hardware is given).
	Replicas int
	// Router names the dispatch policy (default round-robin).
	Router string
	// RouterSeed seeds the random router (default 1; ignored by the
	// deterministic policies).
	RouterSeed int64
	// Accels assigns per-replica hardware: replica i runs on Accels[i],
	// and a latency table is derived per DISTINCT configuration (replicas
	// on identical hardware share one table; different hardware gets its
	// own — mixed ZCU104/AlveoU50 fleets are first-class). Empty means a
	// homogeneous fleet on DeployOptions.Accel. When both Replicas and
	// Accels are set their lengths must agree.
	Accels []accel.Config
	// Recache, when non-nil, enables the window-driven cache-management
	// layer on every replica with the given policy (zero-valued fields
	// select defaults): caches become mutable at runtime, switching to
	// the column that would have served the replica's recent query mix
	// best, with the switch cost modeled in virtual time by the simq
	// engine. Nil keeps the boot-time cache column fixed apart from the
	// scheduler's own Q-periodic updates.
	Recache *serving.RecachePolicy
	// Batch, when non-nil and Enabled (MaxBatch > 1, Window > 0),
	// switches on SubGraph-stationary micro-batching: the live Serve
	// path groups concurrent same-SubNet queries per replica into one
	// accelerator pass (Window is wall-clock there), and Simulate
	// defaults its virtual batch former to the same B and W (Window
	// reinterpreted as virtual seconds via Seconds()).
	Batch *serving.BatchPolicy
	// Models is the multi-tenant axis: the SuperNet families every
	// replica co-hosts, in tenant order (entry 0 is the default model
	// empty Query.Model resolves to). Each (model, distinct hardware
	// config) pair gets its own SuperNet and latency-table family; each
	// replica holds one scheduler per model behind a shared Persistent
	// Buffer the tenants partition. Empty hosts the one model
	// DeployOptions.Workload names, as a single unnamed tenant.
	Models []Workload
	// Partition picks the shared-PB cache-partitioning policy for
	// multi-model fleets: nil (or the zero policy) is the static equal
	// split; PartitionTraffic lets a hot model steal PB half-slots from
	// a cold one at runtime. Rejected without at least two Models.
	Partition *serving.PartitionPolicy
	// Autoscale makes the fleet elastic: the deployment boots Max
	// replicas (cache columns and PB partitions assigned up front for
	// every replica that could ever serve), replicas Min..Max-1 start
	// Standby, and simulated runs let the named policy move the
	// admitting count between Min and Max — replica lifecycle as
	// first-class events. Nil keeps the fleet fixed. When both Replicas
	// and Autoscale are set, Replicas must equal Max.
	Autoscale *AutoscaleOptions
	// Table, when non-nil, serves the whole fleet from this prebuilt
	// latency table instead of deriving an analytic one — the loading
	// point for calibration-measured tables (calib.File.Table,
	// LoadTableFile). The table's rows must cover the deployment's
	// frontier in order; since one table describes one (model,
	// hardware) pair it is rejected alongside Accels (heterogeneous
	// fleets derive per-config tables) and Models (each tenant needs
	// its own family).
	Table *latencytable.Table
	// Cohorts attaches a client-cohort population to the deployment
	// (sushi-server -cohorts): the default workload for POST
	// /v1/simulate's "cohorts" process. Validated at deploy time
	// (malformed cohorts and cohorts targeting unhosted models are
	// typed OptionErrors); nil leaves the deployment population-free.
	Cohorts *workload.Population
}

// AutoscaleOptions is the deployment-facing autoscaling configuration
// — names a policy instead of holding one, so it round-trips through
// flags and JSON. DeployCluster validates it into a resolved
// autoscale.Config on the ClusterDeployment.
type AutoscaleOptions struct {
	// Min and Max bound the admitting replica count (1 <= Min <= Max).
	Min, Max int
	// Policy names the scaling policy: "utilization" (default), "slo"
	// or "saturation" (plus the autoscale.ParsePolicy aliases).
	Policy string
	// Interval is the evaluation cadence in virtual seconds (> 0).
	Interval float64
	// Cooldown is the minimum virtual time between enacted scale
	// actions (>= 0; 0 acts on every evaluation).
	Cooldown float64
}

// ResolveAutoscale validates deployment-facing autoscale options into
// the engine's resolved config. Nil in, nil out; an empty Policy
// selects "utilization". Every rejection is a typed OptionError on
// Field "Autoscale".
func ResolveAutoscale(a *AutoscaleOptions) (*autoscale.Config, error) {
	if a == nil {
		return nil, nil
	}
	switch {
	case a.Min < 1:
		return nil, &OptionError{Field: "Autoscale", Value: a.Min,
			Reason: "autoscale Min must be at least 1"}
	case a.Max < a.Min:
		return nil, &OptionError{Field: "Autoscale", Value: a.Max,
			Reason: fmt.Sprintf("autoscale Max must be at least Min %d", a.Min)}
	case !(a.Interval > 0):
		return nil, &OptionError{Field: "Autoscale", Value: a.Interval,
			Reason: "autoscale Interval must be positive virtual seconds"}
	case !(a.Cooldown >= 0):
		return nil, &OptionError{Field: "Autoscale", Value: a.Cooldown,
			Reason: "autoscale Cooldown must be non-negative"}
	}
	name := a.Policy
	if name == "" {
		name = "utilization"
	}
	pol, err := autoscale.ParsePolicy(name)
	if err != nil {
		return nil, &OptionError{Field: "Autoscale", Value: a.Policy, Reason: err.Error()}
	}
	return &autoscale.Config{Min: a.Min, Max: a.Max, Policy: pol,
		Interval: a.Interval, Cooldown: a.Cooldown}, nil
}

// NewRouter constructs the named routing policy.
func NewRouter(name string, seed int64) (serving.Router, error) {
	switch name {
	case "", RouterRoundRobin:
		return serving.NewRoundRobin(), nil
	case RouterLeastLoaded:
		return serving.NewLeastLoaded(), nil
	case RouterAffinity:
		return serving.NewAffinity(), nil
	case RouterFastest:
		return serving.NewFastest(), nil
	case RouterRandom:
		if seed == 0 {
			seed = 1
		}
		return serving.NewRandom(seed), nil
	default:
		return nil, &OptionError{Field: "Router", Value: name,
			Reason: "must be round-robin, least-loaded, affinity, fastest or random"}
	}
}

// ModelDeployment is one co-hosted model of a multi-tenant cluster:
// its id, weight-shared SuperNet and serving frontier.
type ModelDeployment struct {
	// Model is the tenant's model id ("resnet50", ...).
	Model string
	// Super is the model's weight-shared network (one copy, shared
	// across replicas).
	Super *supernet.SuperNet
	// Frontier is the model's serving set X.
	Frontier []*supernet.SubNet
}

// ClusterDeployment bundles the co-hosted models' SuperNets, their
// serving frontiers and a running replica cluster — every deployment,
// a single accelerator being a cluster of one replica.
type ClusterDeployment struct {
	// Super is the DEFAULT model's weight-shared network (one copy,
	// shared: SubGraph weights are identical across replicas). For the
	// full multi-tenant list see Models.
	Super *supernet.SuperNet
	// Frontier is the default model's serving set X.
	Frontier []*supernet.SubNet
	// Models lists every co-hosted model in tenant order; entry 0 is
	// the default. Single-model deployments hold one entry with an
	// empty Model id.
	Models []ModelDeployment
	// Cluster dispatches queries across the replicas.
	Cluster *serving.Cluster
	// Autoscale is the resolved elastic-fleet configuration (nil for
	// fixed fleets); Cluster.Simulate and POST /v1/simulate inherit it.
	Autoscale *autoscale.Config
	// Cohorts is the deployment's client-cohort population (nil when
	// none was configured); POST /v1/simulate's "cohorts" process
	// draws from it.
	Cohorts *workload.Population
}

// DeployCluster builds R replicas — homogeneous fleets share ONE
// SushiAbs latency table per model (read-only after build),
// heterogeneous fleets get one per distinct accel.Config — and wires
// them behind the named router. There is one path: a single-model fleet
// is a one-tenant fleet whose tenant is unnamed. The i-th replica of
// each hardware group boots on its i-th fitting cache column, so
// deployments start with distinct cached SubGraphs and affinity routing
// has signal from the first query; a group with more replicas than
// fitting columns is rejected with a typed OptionError.
func DeployCluster(opt DeployOptions, copt ClusterOptions) (*ClusterDeployment, error) {
	if copt.Replicas < 0 {
		return nil, &OptionError{Field: "Replicas", Value: copt.Replicas,
			Reason: "replica count must be positive (0 selects 1)"}
	}
	// Autoscale bounds resolve BEFORE the fleet sizing below: an
	// elastic deployment boots Max replicas (so cache columns, latency
	// tables and PB partitions exist for every replica that could ever
	// admit — Max > the table's columns is rejected by the usual
	// boot-column invariant downstream), with Replicas defaulting to
	// Max and a mismatch rejected.
	asc, err := ResolveAutoscale(copt.Autoscale)
	if err != nil {
		return nil, err
	}
	if asc != nil {
		if copt.Replicas == 0 {
			copt.Replicas = asc.Max
		} else if copt.Replicas != asc.Max {
			return nil, &OptionError{Field: "Autoscale", Value: asc.Max,
				Reason: fmt.Sprintf("autoscale Max must equal the replica count %d (an elastic fleet boots Max replicas)", copt.Replicas)}
		}
	}
	if len(copt.Accels) > 0 {
		if copt.Replicas == 0 {
			copt.Replicas = len(copt.Accels)
		}
		if copt.Replicas != len(copt.Accels) {
			return nil, &OptionError{Field: "Accels", Value: len(copt.Accels),
				Reason: fmt.Sprintf("per-replica hardware list must match the replica count %d", copt.Replicas)}
		}
		for i, cfg := range copt.Accels {
			if err := cfg.Validate(); err != nil {
				return nil, &OptionError{Field: "Accels", Value: i, Reason: err.Error()}
			}
		}
	}
	if copt.Replicas == 0 {
		copt.Replicas = 1
	}
	if copt.Recache != nil {
		if err := copt.Recache.Validate(); err != nil {
			return nil, &OptionError{Field: "Recache", Value: copt.Recache.MinGain, Reason: err.Error()}
		}
	}
	if copt.Batch != nil {
		if err := copt.Batch.Validate(); err != nil {
			return nil, &OptionError{Field: "Batch", Value: copt.Batch.MaxBatch, Reason: err.Error()}
		}
	}
	seen := make(map[Workload]bool, len(copt.Models))
	for i, m := range copt.Models {
		if _, err := BuildSuperNet(m); err != nil {
			return nil, &OptionError{Field: "Models", Value: string(m),
				Reason: fmt.Sprintf("model %d: must be %q or %q", i, ResNet50, MobileNetV3)}
		}
		if seen[m] {
			return nil, &OptionError{Field: "Models", Value: string(m),
				Reason: "models must be distinct (each tenant boots one SuperNet per hardware config)"}
		}
		seen[m] = true
	}
	if copt.Partition != nil {
		if err := copt.Partition.Validate(); err != nil {
			return nil, &OptionError{Field: "Partition", Value: int(copt.Partition.Mode), Reason: err.Error()}
		}
		if len(copt.Models) < 2 {
			return nil, &OptionError{Field: "Partition", Value: copt.Partition.Mode.String(),
				Reason: "cache partitioning needs at least two Models (a single tenant owns the whole PB)"}
		}
	}
	if copt.Table != nil {
		if len(copt.Accels) > 0 {
			return nil, &OptionError{Field: "Table", Value: len(copt.Accels),
				Reason: "a supplied latency table describes one hardware configuration; heterogeneous fleets (Accels) derive per-config tables"}
		}
		if len(copt.Models) > 0 {
			return nil, &OptionError{Field: "Table", Value: len(copt.Models),
				Reason: "a supplied latency table describes one model; multi-tenant fleets (Models) derive per-tenant tables"}
		}
	}
	router, err := NewRouter(copt.Router, copt.RouterSeed)
	if err != nil {
		return nil, err
	}
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	cfgs := copt.Accels
	if len(cfgs) == 0 {
		base := opt.accelConfig()
		cfgs = make([]accel.Config, copt.Replicas)
		for i := range cfgs {
			cfgs[i] = base
		}
	}
	// A single-model fleet is a one-tenant fleet whose tenant is unnamed.
	workloads := copt.Models
	if len(workloads) == 0 {
		workloads = []Workload{opt.Workload}
	}
	models := make([]ModelDeployment, len(workloads))
	for i, w := range workloads {
		super, frontier, err := frontierFor(w)
		if err != nil {
			return nil, err
		}
		models[i] = ModelDeployment{Super: super, Frontier: frontier}
		if len(copt.Models) > 0 {
			models[i].Model = string(w)
		}
	}
	if copt.Table != nil {
		if err := tableCoversFrontier(copt.Table, models[0].Frontier); err != nil {
			return nil, err
		}
	}
	reps, err := bootReplicas(models, opt.servingOptions(opt.accelConfig()), cfgs, copt.Partition, copt.Table)
	if err != nil {
		return nil, err
	}
	cluster, err := serving.NewCluster(reps, router)
	if err != nil {
		return nil, err
	}
	if copt.Recache != nil {
		for _, rep := range cluster.Replicas() {
			rep.EnableRecache(*copt.Recache)
		}
	}
	if copt.Batch != nil {
		if err := cluster.EnableBatching(*copt.Batch); err != nil {
			return nil, err
		}
	}
	if asc != nil {
		// Replicas beyond Min start as spare capacity; the simq engine
		// re-derives lifecycle at each Run start, this just makes the
		// live telemetry (GET /v1/replicas) honest before the first run.
		for i, rep := range cluster.Replicas() {
			if i >= asc.Min {
				rep.SetLifecycle(serving.LifecycleStandby)
			}
		}
	}
	if copt.Cohorts != nil {
		if err := copt.Cohorts.Validate(); err != nil {
			return nil, &OptionError{Field: "Cohorts", Value: len(copt.Cohorts.Cohorts), Reason: err.Error()}
		}
		for i, ch := range copt.Cohorts.Cohorts {
			if ch.Model == "" {
				continue
			}
			hosted := false
			for _, md := range models {
				if md.Model == ch.Model {
					hosted = true
					break
				}
			}
			if !hosted {
				return nil, &OptionError{Field: "Cohorts", Value: ch.Model,
					Reason: fmt.Sprintf("cohort %d targets model %q the fleet does not host", i, ch.Model)}
			}
		}
	}
	return &ClusterDeployment{
		Super:     models[0].Super,
		Frontier:  models[0].Frontier,
		Models:    models,
		Cluster:   cluster,
		Autoscale: asc,
		Cohorts:   copt.Cohorts,
	}, nil
}

// TenantBudgets is the candidate budget ladder for one model of an
// M-tenant fleet sharing a pbBytes Persistent Buffer: half-slot
// (PB/2M) multiples k = 1..M+1 — every share the partitioner can
// apportion (floor one half-slot, cap M+1) has a matching candidate
// level, so shrunk tenants always find a fitting column and grown
// tenants a bigger one.
func TenantBudgets(pbBytes int64, m int) []int64 {
	halfSlot := pbBytes / int64(2*m)
	out := make([]int64, m+1)
	for k := 1; k <= m+1; k++ {
		out[k-1] = int64(k) * halfSlot
	}
	return out
}

// bootTenantColumn picks the boot cache column for the idx-th replica
// of a (model, hardware) group: the idx-th column whose SubGraph fits
// the tenant's boot-time PB share (share 0, a tenant that owns the
// whole PB, fits every column, so it is column idx). Distinct cached
// SubGraphs per replica give affinity routing signal from the first
// query. A group that outgrows its fitting columns is a typed
// OptionError: an unnamed single-model fleet reports "Replicas" with
// the fleet size, a named tenant reports "Models" with the model. Only
// same-hardware replicas compete for a table's columns, so the count
// in the message is the group's. NoPB fleets have no cache and all
// boot on the table's one cold column.
func bootTenantColumn(mode serving.Mode, table *latencytable.Table, idx, fleet int, hw, model string, share int64) (int, error) {
	if mode == serving.NoPB {
		return 0, nil
	}
	fit := 0
	for j := 0; j < table.Cols(); j++ {
		if share > 0 && table.Graphs[j].Bytes() > share {
			continue
		}
		if fit == idx {
			return j, nil
		}
		fit++
	}
	if model == "" {
		return 0, &OptionError{Field: "Replicas", Value: fleet,
			Reason: fmt.Sprintf("%d replicas on %q exceed the latency table's %d cache columns (raise Candidates or shrink the fleet)",
				idx+1, hw, fit)}
	}
	return 0, &OptionError{Field: "Models", Value: model,
		Reason: fmt.Sprintf("model %q on %q: %d same-hardware replicas exceed its %d boot-share cache columns (raise Candidates or shrink the fleet)",
			model, hw, idx+1, fit)}
}

// bootReplicas is the one boot loop: it assembles a fleet of one
// replica per entry of cfgs, every replica hosting every model. There
// is ONE latency table per (model, distinct hardware config) pair,
// shared by the same-hardware replicas (accel.Config is comparable, so
// grouping is exact): the supplied table when the caller has one,
// else a built one whose candidate set spans the partition ladder when
// several tenants share the PB. Each (replica, model) System boots on a
// distinct fitting column, and the shared-PB partitioner is armed on
// every multi-tenant replica (PB-backed modes only).
func bootReplicas(models []ModelDeployment, sopt serving.Options, cfgs []accel.Config, part *serving.PartitionPolicy, supplied *latencytable.Table) ([]*serving.Replica, error) {
	m := len(models)
	type group struct {
		tables []*latencytable.Table
		count  int
	}
	groups := make(map[accel.Config]*group)
	reps := make([]*serving.Replica, len(cfgs))
	for i, cfg := range cfgs {
		g := groups[cfg]
		if g == nil {
			g = &group{tables: make([]*latencytable.Table, m)}
			for mi, md := range models {
				if supplied != nil {
					g.tables[mi] = supplied
					continue
				}
				o := sopt
				o.Accel = cfg
				var budgets []int64
				if m > 1 && o.Mode != serving.NoPB {
					budgets = TenantBudgets(cfg.PBBytes, m)
				}
				table, _, err := serving.BuildTenantTable(md.Super, md.Frontier, o, budgets)
				if err != nil {
					return nil, fmt.Errorf("core: model %q on %q: %w", md.Model, cfg.Name, err)
				}
				g.tables[mi] = table
			}
			groups[cfg] = g
		}
		tenants := make([]serving.Tenant, m)
		bootShare := int64(0)
		if m > 1 {
			bootShare = 2 * (cfg.PBBytes / int64(2*m))
		}
		for mi, md := range models {
			col, err := bootTenantColumn(sopt.Mode, g.tables[mi], g.count, len(cfgs), cfg.Name, md.Model, bootShare)
			if err != nil {
				return nil, err
			}
			o := sopt
			o.Accel = cfg
			o.Table = g.tables[mi]
			o.StaticColumn = col
			sys, err := serving.New(md.Super, md.Frontier, o)
			if err != nil {
				return nil, fmt.Errorf("core: model %q on %q: %w", md.Model, cfg.Name, err)
			}
			tenants[mi] = serving.Tenant{Model: md.Model, Sys: sys}
		}
		rep, err := serving.NewMultiReplica(i, tenants)
		if err != nil {
			return nil, err
		}
		if m > 1 && sopt.Mode != serving.NoPB && cfg.PBBytes > 0 {
			pol := serving.PartitionPolicy{}
			if part != nil {
				pol = *part
			}
			if err := rep.EnablePartition(pol, cfg.PBBytes); err != nil {
				return nil, err
			}
		}
		reps[i] = rep
		g.count++
	}
	return reps, nil
}

// tableCoversFrontier checks a supplied (e.g. measured) latency table
// serves the deployment's frontier: same rows in the same order,
// matched by name — the serving layer indexes frontier and table rows
// interchangeably, so a partial or reordered table is a typed error
// here rather than a silent mis-serve downstream.
func tableCoversFrontier(t *latencytable.Table, frontier []*supernet.SubNet) error {
	if t.Rows() != len(frontier) {
		return &OptionError{Field: "Table", Value: t.Rows(),
			Reason: fmt.Sprintf("table has %d rows, the deployment's frontier has %d SubNets (calibrate the full frontier)", t.Rows(), len(frontier))}
	}
	for i, sn := range frontier {
		if t.SubNets[i].Name != sn.Name {
			return &OptionError{Field: "Table", Value: t.SubNets[i].Name,
				Reason: fmt.Sprintf("table row %d is %q, the frontier expects %q (row order must match)", i, t.SubNets[i].Name, sn.Name)}
		}
	}
	return nil
}
