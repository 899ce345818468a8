// Command sushi-server runs a SUSHI replica cluster behind a v1 HTTP API:
//
//	POST /v1/serve        {"min_accuracy": 78, "max_latency_ms": 5,
//	                       "deadline_ms": 20, "policy": "lat"}
//	POST /v1/serve/batch  NDJSON queries in, NDJSON outcomes out
//	                      (bodies past 1 MiB on /v1/serve and 32 MiB
//	                      on /v1/serve/batch are answered 413)
//	POST /v1/simulate     open-loop virtual-time simulation
//	GET  /v1/replicas     per-replica hardware, cache state, queue depth
//	GET  /v1/frontier     servable SubNets
//	GET  /v1/cache        replica 0's Persistent Buffer state
//	GET  /v1/stats        cluster-wide aggregates
//	GET  /healthz
//
// Usage:
//
//	sushi-server [-addr :8080] [-w workload] [-policy acc|lat|energy]
//	             [-q period] [-replicas n] [-router kind] [-seed n]
//	             [-accels preset,preset,...] [-recache]
//	             [-batch n] [-batch-window dur]
//	             [-models workload,workload,...] [-partition static|traffic]
//	             [-autoscale min:max] [-autoscale-policy name]
//	             [-autoscale-interval s] [-autoscale-cooldown s]
//	             [-cohorts spec] [-table file] [-pprof addr]
//
// Router kinds: round-robin (default), least-loaded, affinity, fastest,
// random. The -accels flag boots a heterogeneous fleet, one preset per
// replica (zcu104, alveo-u50, roofline); -recache enables runtime
// SubGraph re-caching with the default policy. -batch enables
// SubGraph-stationary micro-batching: up to n concurrent same-SubNet
// queries per replica share one accelerator pass (weights fetched
// once), waiting at most -batch-window (default 2ms) for the batch to
// fill; the same B/W pair is the default batch former for
// POST /v1/simulate. -models boots a MULTI-TENANT fleet (mirroring the
// -accels pattern): every replica co-hosts one scheduler + latency
// table per listed model behind a shared Persistent Buffer, queries
// pick their model via the "model" request field, and -partition
// selects the shared-PB split (static equal shares, or traffic-weighted
// stealing). -autoscale min:max boots an ELASTIC fleet: max replicas
// built up front, min..max-1 starting in standby, with POST /v1/simulate
// runs letting -autoscale-policy (utilization, slo or saturation) move
// the admitting count between the bounds every -autoscale-interval
// virtual seconds (scale-ups pay the cold Persistent Buffer fill;
// scale-downs drain before retiring). Per-request autoscale_* knobs
// override the flags. -cohorts installs a client-cohort population as
// the deployment's default workload for POST /v1/simulate's "cohorts"
// process: ';'-separated cohorts of ','-separated k=v pairs (n, rate,
// ia=poisson|gamma|weibull, shape, class, model, budget=ms|ms|...,
// acc=pct|pct|...), e.g.
// "n=5,rate=40,ia=gamma,shape=0.3,class=gold,budget=8|12;rate=100,class=batch".
// Cohort queries carry SLO classes, so /v1/simulate and /v1/stats grow
// per_class slices and a Jain fairness index. -table serves from a
// MEASURED latency table written by sushi-bench -calibrate -table-out:
// the scheduler's per-(SubNet, cached-SubGraph) latencies come from the
// file instead of the analytic model, and the file's recorded workload
// overrides -w (the table rows must match that workload's frontier).
// -table composes with routers, -recache and -batch but not with
// -accels or -models (a measured table is specific to one accelerator
// and one model family). -pprof serves
// net/http/pprof on a SEPARATE
// listener (e.g. -pprof localhost:6060) for live CPU/heap profiling of
// a running server; it is off by default and should stay on loopback.
// Both listeners drop a connection whose request headers take longer
// than 10 s to arrive, and keep-alive connections idle for 2 min. On
// SIGINT or SIGTERM both stop accepting and finish their in-flight
// requests for up to 10 s; a clean drain exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sushi/internal/accel"
	"sushi/internal/core"
	"sushi/internal/server"
	"sushi/internal/serving"
	"sushi/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		wl       = flag.String("w", "resnet50", "workload: resnet50 or mobilenetv3")
		policy   = flag.String("policy", "acc", "default policy: acc, lat or energy")
		q        = flag.Int("q", 4, "cache-update period Q")
		replicas = flag.Int("replicas", 1, "replica deployments behind the dispatcher")
		router   = flag.String("router", core.RouterRoundRobin,
			"dispatch policy: round-robin, least-loaded, affinity, fastest or random")
		seed   = flag.Int64("seed", 1, "random-router seed")
		accels = flag.String("accels", "",
			"comma-separated per-replica hardware presets (zcu104, alveo-u50, roofline); overrides -replicas")
		recache = flag.Bool("recache", false,
			"enable runtime SubGraph re-caching (window-driven cache switching) on every replica")
		batch = flag.Int("batch", 0,
			"micro-batch size B: group up to B concurrent same-SubNet /v1/serve queries per replica into one accelerator pass (/v1/serve/batch never batches; 0/1 = off)")
		batchWindow = flag.Duration("batch-window", 2*time.Millisecond,
			"longest a forming micro-batch waits to fill (wall clock; virtual seconds for /v1/simulate)")
		models = flag.String("models", "",
			"comma-separated model families every replica co-hosts (resnet50, mobilenetv3); overrides -w")
		partition = flag.String("partition", "static",
			"shared-PB cache partitioning for -models fleets: static or traffic")
		autoscale = flag.String("autoscale", "",
			"elastic-fleet bounds min:max (e.g. 2:8); boots max replicas with min..max-1 in standby")
		autoscalePolicy = flag.String("autoscale-policy", "utilization",
			"elastic-fleet scaling policy: utilization, slo or saturation")
		autoscaleInterval = flag.Float64("autoscale-interval", 0.25,
			"virtual seconds between autoscale policy evaluations")
		autoscaleCooldown = flag.Float64("autoscale-cooldown", 0,
			"minimum virtual seconds between enacted scale actions")
		cohorts = flag.String("cohorts", "",
			"client-cohort population spec for /v1/simulate's \"cohorts\" process (';'-separated cohorts of k=v pairs)")
		table = flag.String("table", "",
			"serve from a measured latency-table file (sushi-bench -calibrate -table-out); its workload overrides -w")
		pprofAddr = flag.String("pprof", "",
			"serve net/http/pprof on this extra address (e.g. localhost:6060); off when empty")
	)
	flag.Parse()

	// Both listeners serve until one fails or SIGINT/SIGTERM arrives,
	// then stop accepting and drain in-flight requests for up to 10 s.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var srvs []*http.Server
	failed := make(chan error, 2)
	listen := func(srv *http.Server) {
		srvs = append(srvs, srv)
		go func() { failed <- srv.ListenAndServe() }()
	}
	if *pprofAddr != "" {
		// The blank net/http/pprof import registers its handlers on the
		// default mux, which the API server (a dedicated handler) never
		// consults — debug endpoints stay off the public listener.
		listen(server.NewHTTPServer(*pprofAddr, nil))
	}

	opt := core.DeployOptions{Workload: core.Workload(*wl), Q: *q}
	pol, err := server.ParsePolicy(*policy)
	if err != nil {
		log.Fatalf("sushi-server: %v", err)
	}
	opt.Policy = pol
	copt := core.ClusterOptions{
		Replicas:   *replicas,
		Router:     *router,
		RouterSeed: *seed,
	}
	if *accels != "" {
		for _, name := range strings.Split(*accels, ",") {
			cfg, err := accel.Preset(strings.TrimSpace(name))
			if err != nil {
				log.Fatalf("sushi-server: -accels: %v", err)
			}
			copt.Accels = append(copt.Accels, cfg)
		}
		copt.Replicas = len(copt.Accels)
	}
	if *recache {
		copt.Recache = &serving.RecachePolicy{}
	}
	if *batch > 1 {
		copt.Batch = &serving.BatchPolicy{MaxBatch: *batch, Window: batchWindow.Seconds()}
	}
	if *models != "" {
		for _, name := range strings.Split(*models, ",") {
			copt.Models = append(copt.Models, core.Workload(strings.TrimSpace(name)))
		}
		mode, err := serving.ParsePartitionMode(*partition)
		if err != nil {
			log.Fatalf("sushi-server: -partition: %v", err)
		}
		if len(copt.Models) > 1 {
			copt.Partition = &serving.PartitionPolicy{Mode: mode}
		}
	}
	if *autoscale != "" {
		var amin, amax int
		if _, err := fmt.Sscanf(*autoscale, "%d:%d", &amin, &amax); err != nil {
			log.Fatalf("sushi-server: -autoscale: want min:max (e.g. 2:8), got %q", *autoscale)
		}
		copt.Autoscale = &core.AutoscaleOptions{
			Min:      amin,
			Max:      amax,
			Policy:   *autoscalePolicy,
			Interval: *autoscaleInterval,
			Cooldown: *autoscaleCooldown,
		}
		// An elastic fleet is sized by its max bound; honor -replicas
		// only when the operator passed it explicitly.
		replicasSet := false
		flag.Visit(func(f *flag.Flag) { replicasSet = replicasSet || f.Name == "replicas" })
		if !replicasSet && *accels == "" {
			copt.Replicas = 0
		}
	}
	if *cohorts != "" {
		pop, err := workload.ParsePopulation(*cohorts)
		if err != nil {
			log.Fatalf("sushi-server: -cohorts: %v", err)
		}
		copt.Cohorts = &pop
	}
	if *table != "" {
		tab, w, err := core.LoadTableFile(*table)
		if err != nil {
			log.Fatalf("sushi-server: -table: %v", err)
		}
		opt.Workload = w
		copt.Table = tab
	}
	dep, err := core.DeployCluster(opt, copt)
	if err != nil {
		log.Fatalf("sushi-server: %v", err)
	}
	batching := "unbatched"
	if pol := dep.Cluster.BatchPolicy(); pol.Enabled() {
		batching = fmt.Sprintf("batch B=%d W=%v", pol.MaxBatch, *batchWindow)
	}
	workloads := string(opt.Workload)
	if copt.Table != nil {
		workloads += " (measured table)"
	}
	if len(dep.Models) > 1 {
		names := make([]string, len(dep.Models))
		for i, md := range dep.Models {
			names[i] = md.Model
		}
		workloads = fmt.Sprintf("%s (%s partition)", strings.Join(names, "+"), *partition)
	}
	elastic := ""
	if a := dep.Autoscale; a != nil {
		elastic = fmt.Sprintf(", elastic %d:%d %s", a.Min, a.Max, a.Policy.Name())
	}
	fmt.Printf("sushi-server: %s (%s policy) on %s, %d replicas (%s router, %s%s), %d servable SubNets\n",
		workloads, *policy, *addr, dep.Cluster.Size(), dep.Cluster.RouterName(), batching, elastic, len(dep.Frontier))
	listen(server.NewHTTPServer(*addr, server.New(dep)))
	select {
	case err := <-failed:
		log.Fatalf("sushi-server: %v", err)
	case <-ctx.Done():
		stop()
	}
	drain, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range srvs {
		if err := srv.Shutdown(drain); err != nil {
			log.Fatalf("sushi-server: drain %s: %v", srv.Addr, err)
		}
	}
}
