package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptrace"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"sushi/internal/accel"
	"sushi/internal/core"
	"sushi/internal/sched"
	"sushi/internal/server"
	"sushi/internal/serving"
)

// httpWorkload describes one real-HTTP workload: the server's flags,
// the in-process twin of that deployment (the generator reads frontier
// and latency spans off it, the traced level replays run on it), the
// endpoint shape and the constraint mix.
type httpWorkload struct {
	name       string
	serverArgs []string
	deploy     func() (*core.ClusterDeployment, error)
	// routerName and policy are the deployment's -router and -policy, for
	// the router and scheduler replays.
	routerName string
	policy     sched.Policy
	// batchLines is the NDJSON line count per /v1/serve/batch request;
	// 0 sends one /v1/serve request per query.
	batchLines int
	// continuous selects the never-repeating mix; false the 36 classes.
	continuous bool
	// poolQueries is the generated stream length the rounds cycle over.
	poolQueries int
	// mechanism checks the workload exercised what it exists to
	// exercise, from everything the reply checks saw.
	mechanism func(seen *replySeen, specs []modelSpec) []string
}

// Pool sizes. The classes pool only has to be long enough that the
// seeded order matters. The continuous pool must outlast the
// scheduler's decision memo (sched.memoCap = 32768 entries per
// scheduler, cleared when full): with 2 models x 4 replicas a cycle of
// 2048 x 256 = 524288 distinct lines puts well over 32768 fresh keys
// between two visits of the same line on every scheduler, so a repeat
// is always a miss even when a round wraps the pool.
const (
	classesPool    = 1 << 16
	batchLines     = 256
	continuousPool = 2048 * batchLines
)

var httpSingle = httpWorkload{
	name:       "http_single",
	serverArgs: []string{"-w", "mobilenetv3", "-replicas", "2", "-router", "round-robin", "-policy", "lat"},
	deploy: func() (*core.ClusterDeployment, error) {
		return core.DeployCluster(
			core.DeployOptions{Workload: core.MobileNetV3, Q: 4, Policy: sched.StrictLatency},
			core.ClusterOptions{Replicas: 2, Router: core.RouterRoundRobin, RouterSeed: 1})
	},
	routerName:  core.RouterRoundRobin,
	policy:      sched.StrictLatency,
	poolQueries: classesPool,
	mechanism: func(seen *replySeen, specs []modelSpec) []string {
		var miss []string
		for _, name := range specs[0].Names {
			if !seen.rows[rowKey{"", name}] {
				miss = append(miss, "frontier row "+name+" never served")
			}
		}
		return miss
	},
}

var httpBatchMT = httpWorkload{
	name: "http_batch_mt",
	serverArgs: []string{"-models", "resnet50,mobilenetv3", "-accels", "zcu104,alveo-u50,zcu104,alveo-u50",
		"-router", "fastest", "-partition", "traffic", "-recache"},
	deploy: func() (*core.ClusterDeployment, error) {
		var cfgs []accel.Config
		for _, name := range []string{"zcu104", "alveo-u50", "zcu104", "alveo-u50"} {
			cfg, err := accel.Preset(name)
			if err != nil {
				return nil, err
			}
			cfgs = append(cfgs, cfg)
		}
		return core.DeployCluster(
			core.DeployOptions{Workload: core.ResNet50, Q: 4, Policy: sched.StrictAccuracy},
			core.ClusterOptions{
				Replicas: 4, Accels: cfgs, Router: core.RouterFastest, RouterSeed: 1,
				Recache:   &serving.RecachePolicy{},
				Models:    []core.Workload{core.ResNet50, core.MobileNetV3},
				Partition: &serving.PartitionPolicy{Mode: serving.PartitionTraffic},
			})
	},
	routerName:  core.RouterFastest,
	policy:      sched.StrictAccuracy,
	batchLines:  batchLines,
	continuous:  true,
	poolQueries: continuousPool,
	mechanism: func(seen *replySeen, _ []modelSpec) []string {
		var miss []string
		if len(seen.models) < 2 {
			miss = append(miss, fmt.Sprintf("only %d models served, want 2", len(seen.models)))
		}
		if len(seen.policies) < 3 {
			miss = append(miss, fmt.Sprintf("only %d policies sent, want 3", len(seen.policies)))
		}
		return miss
	},
}

// generate builds the workload's query pool and request bodies.
func (w *httpWorkload) generate(seed int64, specs []modelSpec) ([]genQuery, [][]byte) {
	var qs []genQuery
	if w.continuous {
		qs = genContinuous(subSeed(seed, 1), specs, w.poolQueries)
	} else {
		qs = genClasses(subSeed(seed, 2), specs[0], w.poolQueries)
	}
	if w.batchLines > 0 {
		return qs, batchBodies(qs, w.batchLines)
	}
	return qs, singleBodies(qs)
}

// path is the endpoint the workload posts to.
func (w *httpWorkload) path() string {
	if w.batchLines > 0 {
		return "/v1/serve/batch"
	}
	return "/v1/serve"
}

// queriesPerRequest is how many queries one request carries.
func (w *httpWorkload) queriesPerRequest() int {
	if w.batchLines > 0 {
		return w.batchLines
	}
	return 1
}

// buildServer compiles cmd/sushi-server into the checkout's build
// directory and returns the binary's path and the build's wall time
// (reported as build_s, never part of setup_s).
func buildServer(root string) (string, float64, error) {
	out := filepath.Join(root, ".bench_build", "sushi-server")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", out, "./cmd/sushi-server")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building sushi-server: %v\n%s", err, b)
	}
	return out, time.Since(start).Seconds(), nil
}

// serverProc is one running sushi-server child.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	logs bytes.Buffer
	// bootS is process start to the first healthy /healthz.
	bootS float64
}

// startServer launches the server on a free loopback port and waits
// for /healthz. The child dies with the benchmark (Pdeathsig), and
// every caller stops it explicitly.
func startServer(bin string, args []string) (*serverProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	p := &serverProc{base: "http://" + addr}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stdout, p.cmd.Stderr = &p.logs, &p.logs
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	children.Lock()
	children.live[p] = true
	children.Unlock()
	client := &http.Client{Timeout: time.Second}
	for time.Since(start) < 30*time.Second {
		resp, err := client.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.bootS = time.Since(start).Seconds()
				client.CloseIdleConnections()
				return p, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.stop()
	return nil, fmt.Errorf("sushi-server never became healthy on %s:\n%s", addr, p.logs.String())
}

// stop kills the child and waits until it has ended.
func (p *serverProc) stop() {
	children.Lock()
	delete(children.live, p)
	children.Unlock()
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}
}

// children tracks the running server processes so an interrupted
// benchmark can stop them before it exits.
var children = struct {
	sync.Mutex
	live map[*serverProc]bool
}{live: map[*serverProc]bool{}}

// stopChildren stops every server still running.
func stopChildren() {
	children.Lock()
	live := make([]*serverProc, 0, len(children.live))
	for p := range children.live {
		live = append(live, p)
	}
	children.Unlock()
	for _, p := range live {
		p.stop()
	}
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// rowKey identifies one served SubNet of one model.
type rowKey struct{ model, subnet string }

// replySeen accumulates what the reply checks observed: the evidence
// for the mechanism checks and the served-outcome counters.
type replySeen struct {
	rows     map[rowKey]bool
	models   map[string]bool
	policies map[string]bool
	checked  int64
	sloMet   int64
	accSum   float64
}

func newReplySeen() *replySeen {
	return &replySeen{rows: map[rowKey]bool{}, models: map[string]bool{}, policies: map[string]bool{}}
}

// checkReply verifies one decoded reply line against the request line
// that produced it and the model's frontier; "" means consistent.
func checkReply(r *server.ServeResponse, q genQuery, specs map[string]*modelSpec) string {
	spec := specs[r.Model]
	if spec == nil {
		return fmt.Sprintf("reply names unknown model %q", r.Model)
	}
	if r.Model != q.Model {
		return fmt.Sprintf("asked model %q, served %q", q.Model, r.Model)
	}
	row := -1
	for i, name := range spec.Names {
		if name == r.SubNet {
			row = i
		}
	}
	if row < 0 {
		return fmt.Sprintf("SubNet %q is not on model %q's frontier", r.SubNet, r.Model)
	}
	if r.Accuracy != spec.Acc[row] {
		return fmt.Sprintf("SubNet %s accuracy %v, frontier says %v", r.SubNet, r.Accuracy, spec.Acc[row])
	}
	if r.AccuracyMet != (r.Accuracy >= q.MinAcc) {
		return fmt.Sprintf("accuracy_met=%v but accuracy %v vs floor %v", r.AccuracyMet, r.Accuracy, q.MinAcc)
	}
	// The server compares in seconds, the reply carries milliseconds: a
	// budget within rounding of the latency may legitimately read either
	// way.
	if math.Abs(r.LatencyMS-q.MaxLatMS) > 1e-9*q.MaxLatMS && r.LatencyMet != (r.LatencyMS <= q.MaxLatMS) {
		return fmt.Sprintf("latency_met=%v but latency %vms vs budget %vms", r.LatencyMet, r.LatencyMS, q.MaxLatMS)
	}
	if !(r.LatencyMS > 0) || r.HitRatio < 0 || r.HitRatio > 1 {
		return fmt.Sprintf("implausible latency %vms / hit ratio %v", r.LatencyMS, r.HitRatio)
	}
	return ""
}

// checkBody fully decodes one response body (one JSON object, or one
// per NDJSON line) against the request's queries. It returns the number
// of reply lines that failed a check (a short or malformed body fails
// every line it lost).
func checkBody(body []byte, qs []genQuery, specs map[string]*modelSpec, seen *replySeen) (failed int64, why string) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	for i, q := range qs {
		var r server.ServeResponse
		if err := dec.Decode(&r); err != nil {
			return int64(len(qs) - i), fmt.Sprintf("reply line %d: %v", i, err)
		}
		seen.checked++
		seen.policies[q.Policy] = true
		if msg := checkReply(&r, q, specs); msg != "" {
			failed++
			why = msg
			continue
		}
		seen.rows[rowKey{r.Model, r.SubNet}] = true
		seen.models[r.Model] = true
		if r.LatencyMet && r.AccuracyMet {
			seen.sloMet++
		}
		seen.accSum += r.Accuracy
	}
	if dec.More() {
		return failed + 1, "reply has more lines than the request"
	}
	return failed, why
}

// stashed is one sampled on-clock reply kept for decoding after the
// clock stops.
type stashed struct {
	request int
	body    []byte
}

// phaseSample is one request's client-side phases from httptrace.
type phaseSample struct{ write, wait, read int64 }

// loadResult is what one closed-loop round measured.
type loadResult struct {
	latencies []int64 // per completed request, nanoseconds
	// done is each completed request's completion time since the round's
	// start, index for index with latencies.
	done []int64
	// ticks are the server CPU readings (loadOptions.cpu) taken at the
	// round's start, every sliceDur after it and at its end.
	ticks     []cpuTick
	requests  int64 // attempts, completed or not
	badStatus int64 // attempts that failed: transport error, short body or non-200
	stash     []stashed
	phases    []phaseSample
	firstErr  string
}

// cpuTick is one reading of the server's CPU time; at is the time since
// the round's start.
type cpuTick struct {
	at, cpu time.Duration
}

// sliceDur is the width of the slices a timed round is cut into. Every
// slice yields one sample of each host-time metric, and the run reports
// the quiet decile over all its slices (see quietLow). Half a second
// holds some 40 clock ticks of server CPU and several hundred requests.
const sliceDur = 500 * time.Millisecond

// loadOptions sizes one closed-loop round.
type loadOptions struct {
	url    string
	bodies [][]byte
	conns  int
	// Either a duration or a fixed request count bounds the round.
	dur      time.Duration
	requests int
	// start offsets the cycle through bodies so consecutive rounds do
	// not resend the same prefix.
	start int
	// stashEvery keeps every n-th reply body for the off-clock decode
	// (0 keeps none, 1 keeps all).
	stashEvery int
	// phaseEvery attaches an httptrace to every n-th request (0: never).
	phaseEvery int
	// cpu, when set, reads the server's CPU time; the round records it at
	// its start, every sliceDur and at its end.
	cpu func() (time.Duration, error)
}

// sampleCPU reads the server's CPU time now, every sliceDur from now on
// and once more when the returned function is called, which stops the
// sampling and returns the readings; at counts from begin.
func sampleCPU(begin time.Time, read func() (time.Duration, error)) (stop func() []cpuTick) {
	var ticks []cpuTick
	tick := func() {
		at := time.Since(begin)
		if cpu, err := read(); err == nil {
			ticks = append(ticks, cpuTick{at: at, cpu: cpu})
		}
	}
	tick()
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(sliceDur)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				tick()
			case <-quit:
				return
			}
		}
	}()
	return func() []cpuTick {
		close(quit)
		<-done
		tick()
		return ticks
	}
}

// runLoad drives a closed loop: conns callers, one keep-alive
// connection each, every caller sending its next request only after the
// previous reply has been read in full. Bodies are pre-generated; on the
// clock the generator only writes, reads, checks the status and copies
// out the sampled replies.
func runLoad(opt loadOptions) loadResult {
	type part struct {
		lat, done []int64
		attempts  int64
		bad       int64
		stash     []stashed
		phases    []phaseSample
		firstErr  string
	}
	parts := make([]part, opt.conns)
	tr := &http.Transport{MaxIdleConnsPerHost: opt.conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	var wg sync.WaitGroup
	var res loadResult
	begin := time.Now()
	deadline := begin.Add(opt.dur)
	var stopSampling func() []cpuTick
	if opt.cpu != nil {
		stopSampling = sampleCPU(begin, opt.cpu)
	}
	for c := 0; c < opt.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			var buf bytes.Buffer
			for n := 0; ; n++ {
				if opt.requests > 0 {
					if n*opt.conns+c >= opt.requests {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				idx := (opt.start + n*opt.conns + c) % len(opt.bodies)
				p.attempts++
				req, err := http.NewRequest(http.MethodPost, opt.url, bytes.NewReader(opt.bodies[idx]))
				if err != nil {
					p.bad++
					p.firstErr = err.Error()
					return
				}
				var wrote, first time.Time
				traced := opt.phaseEvery > 0 && n%opt.phaseEvery == 0
				if traced {
					req = req.WithContext(httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
						WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
						GotFirstResponseByte: func() { first = time.Now() },
					}))
				}
				t0 := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					p.bad++
					if p.firstErr == "" {
						p.firstErr = err.Error()
					}
					continue
				}
				buf.Reset()
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				t1 := time.Now()
				p.lat = append(p.lat, int64(t1.Sub(t0)))
				p.done = append(p.done, int64(t1.Sub(begin)))
				if err != nil || resp.StatusCode != http.StatusOK {
					p.bad++
					if p.firstErr == "" {
						p.firstErr = fmt.Sprintf("status %d, read error %v: %.200s", resp.StatusCode, err, buf.Bytes())
					}
					continue
				}
				if traced && !wrote.IsZero() && !first.IsZero() {
					p.phases = append(p.phases, phaseSample{
						write: int64(wrote.Sub(t0)), wait: int64(first.Sub(wrote)), read: int64(t1.Sub(first))})
				}
				if opt.stashEvery > 0 && n%opt.stashEvery == 0 {
					p.stash = append(p.stash, stashed{request: idx, body: append([]byte(nil), buf.Bytes()...)})
				}
			}
		}(c)
	}
	wg.Wait()
	if stopSampling != nil {
		res.ticks = stopSampling()
	}
	for i := range parts {
		p := &parts[i]
		res.latencies = append(res.latencies, p.lat...)
		res.done = append(res.done, p.done...)
		res.requests += p.attempts
		res.badStatus += p.bad
		res.stash = append(res.stash, p.stash...)
		res.phases = append(res.phases, p.phases...)
		if res.firstErr == "" {
			res.firstErr = p.firstErr
		}
	}
	return res
}

// httpSlice is one slice of a timed round: the host-time metrics over
// the requests that completed in it.
type httpSlice struct {
	queriesPerS, p50us, p99us, cpuUSPerQuery float64
}

// slices cuts a timed round at its CPU readings and measures every
// slice (the stub a round ends on, shorter than half a sliceDur, is left
// out); per is the number of queries a request carries.
func (l *loadResult) slices(per int) []httpSlice {
	order := make([]int, len(l.done))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return l.done[order[a]] < l.done[order[b]] })
	var out []httpSlice
	next := 0
	for i := 1; i < len(l.ticks); i++ {
		from, to := l.ticks[i-1], l.ticks[i]
		var us []float64
		for ; next < len(order) && l.done[order[next]] <= int64(to.at); next++ {
			us = append(us, float64(l.latencies[order[next]])/1e3)
		}
		if to.at-from.at < sliceDur/2 || len(us) == 0 {
			continue
		}
		sort.Float64s(us)
		queries := float64(len(us) * per)
		out = append(out, httpSlice{
			queriesPerS:   queries / (to.at - from.at).Seconds(),
			p50us:         percentileSorted(us, 50),
			p99us:         percentileSorted(us, 99),
			cpuUSPerQuery: float64((to.cpu - from.cpu).Microseconds()) / queries,
		})
	}
	return out
}

// httpRound is one fresh-server round's measurements.
type httpRound struct {
	setupS, bootS float64
	requests      int64
	queries       int64
	slices        []httpSlice
	serverCPU     time.Duration
	genCPU        time.Duration
	rssMB         float64
	failed        int64
	attempted     int64
	phases        []phaseSample
}

// verifyReplies is how many replies each round decodes in full before
// the clock starts (the round's warm-up traffic).
const verifyReplies = 2000

// httpRoundOptions configures one round.
type httpRoundOptions struct {
	bin    string
	w      *httpWorkload
	qs     []genQuery
	bodies [][]byte
	specs  map[string]*modelSpec
	// frontier is the default model's spec, the one /v1/frontier serves.
	frontier   *modelSpec
	seen       *replySeen
	dur        time.Duration
	start      int
	phaseEvery int
	notes      *[]string
}

// runHTTPRound starts a fresh server, warms it with fully checked
// traffic, measures one closed-loop round and stops the server.
func runHTTPRound(o httpRoundOptions) (httpRound, error) {
	var r httpRound
	setupStart := time.Now()
	srv, err := startServer(o.bin, o.w.serverArgs)
	if err != nil {
		return r, err
	}
	defer srv.stop()
	r.bootS = srv.bootS
	per := o.w.queriesPerRequest()
	conns := min(runtime.NumCPU(), 4)
	url := srv.base + o.w.path()

	// The served frontier must be the one the generator planned for.
	if msg := checkFrontier(srv.base, o.frontier); msg != "" {
		r.failed++
		note(o.notes, "frontier: "+msg)
	}

	// Warm-up: the first replies, every one decoded and checked.
	warmReqs := (verifyReplies + per - 1) / per
	warm := runLoad(loadOptions{url: url, bodies: o.bodies, conns: conns, requests: warmReqs, start: o.start, stashEvery: 1})
	r.attempted += int64(warmReqs * per)
	r.failed += warm.badStatus * int64(per)
	if warm.firstErr != "" {
		note(o.notes, "warm-up: "+warm.firstErr)
	}
	for _, st := range warm.stash {
		bad, why := checkBody(st.body, o.qs[st.request*per:(st.request+1)*per], o.specs, o.seen)
		r.failed += bad
		if why != "" {
			note(o.notes, "warm-up reply: "+why)
		}
	}
	r.setupS = time.Since(setupStart).Seconds()

	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return r, err
	}
	gen0 := selfCPU()
	load := runLoad(loadOptions{url: url, bodies: o.bodies, conns: conns, dur: o.dur,
		start: o.start + warmReqs, stashEvery: 64, phaseEvery: o.phaseEvery,
		cpu: func() (time.Duration, error) { return procCPU(srv.pid()) }})
	gen1 := selfCPU()
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return r, err
	}
	r.rssMB, err = procPeakRSS(srv.pid())
	if err != nil {
		return r, err
	}
	r.requests = int64(len(load.latencies))
	r.queries = r.requests * int64(per)
	r.attempted += load.requests * int64(per)
	r.slices = load.slices(per)
	r.serverCPU, r.genCPU = cpu1-cpu0, gen1-gen0
	r.failed += load.badStatus * int64(per)
	r.phases = load.phases
	if load.firstErr != "" {
		note(o.notes, "load: "+load.firstErr)
	}
	// 1-in-64 replies of the timed region, decoded after the clock.
	for _, st := range load.stash {
		bad, why := checkBody(st.body, o.qs[st.request*per:(st.request+1)*per], o.specs, o.seen)
		r.failed += bad
		if why != "" {
			note(o.notes, "sampled reply: "+why)
		}
	}
	return r, nil
}

// checkFrontier fetches /v1/frontier and compares it with the default
// model's frontier the generator used.
func checkFrontier(base string, def *modelSpec) string {
	resp, err := http.Get(base + "/v1/frontier")
	if err != nil {
		return err.Error()
	}
	defer resp.Body.Close()
	var rows []server.FrontierEntry
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return err.Error()
	}
	if len(rows) != len(def.Names) {
		return fmt.Sprintf("server frontier has %d rows, generator planned for another", len(rows))
	}
	for i, row := range rows {
		if row.Name != def.Names[i] || row.Accuracy != def.Acc[i] {
			return fmt.Sprintf("frontier row %d is %s/%v, generator has %s/%v", i, row.Name, row.Accuracy, def.Names[i], def.Acc[i])
		}
	}
	return ""
}

// note appends a diagnostic once (bounded, so a systematic failure does
// not flood the report).
func note(notes *[]string, s string) {
	if len(*notes) < 12 {
		*notes = append(*notes, s)
	}
}

// specIndex keys the model specs by the model id replies carry.
func specIndex(specs []modelSpec) map[string]*modelSpec {
	idx := make(map[string]*modelSpec, len(specs))
	for i := range specs {
		idx[specs[i].Name] = &specs[i]
	}
	return idx
}

// rounds is how many fresh-deployment or fresh-engine rounds one run
// measures at least; httpRounds is the number of fresh-server rounds of
// an HTTP run. Every host-time figure is the quiet decile (see quietLow)
// of the run's samples: slices for HTTP, rounds for simq and for
// setup_s, calls for the forward pass. Memory is the median over rounds.
const (
	rounds     = 3
	httpRounds = 5
)

// runHTTP is the end-to-end (trace off) run of one HTTP workload.
func runHTTP(w *httpWorkload, root string, seed int64, seconds float64, res *runResult) error {
	bin, buildS, err := buildServer(root)
	if err != nil {
		return err
	}
	res.Env.BuildS = buildS
	dep, err := w.deploy()
	if err != nil {
		return err
	}
	specs := modelSpecs(dep)
	qs, bodies := w.generate(seed, specs)
	res.Env.StreamSHA256 = streamDigest(bodies)
	idx := specIndex(specs)
	seen := newReplySeen()
	dur := time.Duration(seconds / httpRounds * float64(time.Second))

	var rs []httpRound
	for i := 0; i < httpRounds; i++ {
		r, err := runHTTPRound(httpRoundOptions{bin: bin, w: w, qs: qs, bodies: bodies, specs: idx, frontier: &specs[0], seen: seen,
			dur: dur, start: i * len(bodies) / httpRounds, notes: &res.Notes})
		if err != nil {
			return err
		}
		rs = append(rs, r)
	}
	for _, miss := range w.mechanism(seen, specs) {
		res.Failed++
		note(&res.Notes, "mechanism: "+miss)
	}
	var samples int64
	var slices []httpSlice
	for _, r := range rs {
		res.Attempted += r.attempted
		res.Failed += r.failed
		samples += r.requests
		slices = append(slices, r.slices...)
	}
	if len(slices) == 0 {
		return fmt.Errorf("%s: no round lasted a whole slice (%v); run longer", w.name, sliceDur)
	}
	res.set("setup_s", quietLow(mapOf(rs, func(r httpRound) float64 { return r.setupS })), "s")
	res.set("queries_per_s", quietHigh(mapOf(slices, func(s httpSlice) float64 { return s.queriesPerS })), "1/s")
	res.set("latency_typical_us", quietLow(mapOf(slices, func(s httpSlice) float64 { return s.p50us })), "us")
	res.set("latency_tail_us", quietLow(mapOf(slices, func(s httpSlice) float64 { return s.p99us })), "us")
	res.set("cpu_us_per_query", quietLow(mapOf(slices, func(s httpSlice) float64 { return s.cpuUSPerQuery })), "us")
	res.set("memory_mb", medianOf(rs, func(r httpRound) float64 { return r.rssMB }), "MB")
	res.Samples = fmt.Sprintf("%d rounds, %d slices of %v, %d requests timed, %d replies decoded; served SLO %.4f, mean accuracy %.3f",
		httpRounds, len(slices), sliceDur, samples, seen.checked, float64(seen.sloMet)/float64(max(seen.checked, 1)), seen.accSum/float64(max(seen.checked, 1)))
	return nil
}
