package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"
	"unsafe"

	"sushi/internal/core"
	"sushi/internal/infer"
	"sushi/internal/supernet"
	"sushi/internal/tensor"
)

// fwdStep is one call of the forward cycle.
type fwdStep struct {
	// kind names the call: S and L are the smallest and largest
	// mobilenetv3 frontier SubNets at batch 1, B4 is S at batch 4, R the
	// smallest resnet50 SubNet.
	kind   string
	resnet bool
	net    *supernet.SubNet
	batch  int
}

// fwdModels holds the two SuperNets the cycle switches between. They
// are immutable, so rounds share them; weight stores and engines are
// rebuilt every round.
type fwdModels struct {
	mobile, resnet *supernet.SuperNet
	cycle          []fwdStep
	// kinds lists the distinct calls, in first-use order.
	kinds []fwdStep
}

// forwardCycle is the SubGraph-stationary setting: the SubNet switches
// on every call — S, L, S, B4, S, R.
func forwardCycle() (*fwdModels, error) {
	m := &fwdModels{}
	var err error
	if m.mobile, err = core.BuildSuperNet(core.MobileNetV3); err != nil {
		return nil, err
	}
	if m.resnet, err = core.BuildSuperNet(core.ResNet50); err != nil {
		return nil, err
	}
	mf, err := m.mobile.Frontier()
	if err != nil {
		return nil, err
	}
	rf, err := m.resnet.Frontier()
	if err != nil {
		return nil, err
	}
	s := fwdStep{kind: "S", net: mf[0], batch: 1}
	l := fwdStep{kind: "L", net: mf[len(mf)-1], batch: 1}
	b4 := fwdStep{kind: "B4", net: mf[0], batch: 4}
	r := fwdStep{kind: "R", resnet: true, net: rf[0], batch: 1}
	m.cycle = []fwdStep{s, l, s, b4, s, r}
	m.kinds = []fwdStep{s, l, b4, r}
	return m, nil
}

// imagesPerCycle counts the images one pass over the cycle forwards.
func (m *fwdModels) imagesPerCycle() int {
	n := 0
	for _, st := range m.cycle {
		n += st.batch
	}
	return n
}

// fwdWorkers is the kernel worker count of the measured engines: one
// fewer than the machine's cores (at least one, which runs every kernel
// inline). The default, one worker per core, leaves no core for the
// runtime, the collector or a neighbour on a shared host, and the pool's
// fork-join then waits for whichever worker was pushed aside: the same
// code read a quarter slower for minutes at a time. The pool's scaling
// is the per-layer tensor.pool_speedup_x.
func fwdWorkers() int {
	return max(runtime.NumCPU()-1, 1)
}

// fwdEngines is one round's fresh pair of engines.
type fwdEngines struct {
	mobile, resnet *infer.Engine
	out            tensor.Int8
}

func newFwdEngines(m *fwdModels) *fwdEngines {
	e := &fwdEngines{
		mobile: infer.NewEngine(infer.NewWeightStore(m.mobile, 1)),
		resnet: infer.NewEngine(infer.NewWeightStore(m.resnet, 1)),
	}
	e.mobile.SetWorkers(fwdWorkers())
	e.resnet.SetWorkers(fwdWorkers())
	return e
}

func (e *fwdEngines) close() {
	e.mobile.Close()
	e.resnet.Close()
}

// fwdCall is what one step measured: wall time, the process's CPU time
// (all kernel workers) and the logits' digest.
type fwdCall struct {
	wall, cpu time.Duration
	sum       [sha256.Size]byte
}

// call runs one step.
func (e *fwdEngines) call(st fwdStep, in *tensor.Int8) (fwdCall, error) {
	eng := e.mobile
	if st.resnet {
		eng = e.resnet
	}
	cpu0, start := selfCPU(), time.Now()
	err := eng.ForwardBatchInto(st.net, in, st.batch, &e.out)
	c := fwdCall{wall: time.Since(start), cpu: selfCPU() - cpu0}
	if err != nil {
		return c, err
	}
	c.sum = sha256.Sum256(int8Bytes(e.out.Data))
	return c, nil
}

// int8Bytes views an int8 slice as bytes (for hashing and comparing).
func int8Bytes(v []int8) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v))
}

// fwdRound is one fresh-engine round: the first (preparing) call of
// every kind, then the timed cycles.
type fwdRound struct {
	setupS float64
	// wallMS and cpuMS hold every timed call's wall and CPU time, by call
	// kind.
	wallMS, cpuMS map[string][]float64
	cycles        int
	calls         int64
	failed        int64
	// heapMB is the heap the warm engines hold (weights, arenas), after
	// a forced collection.
	heapMB float64
}

func runFwdRound(m *fwdModels, in *tensor.Int8, budget time.Duration, want map[string][sha256.Size]byte, notes *[]string) (fwdRound, error) {
	r := fwdRound{wallMS: map[string][]float64{}, cpuMS: map[string][]float64{}}
	setupStart := time.Now()
	e := newFwdEngines(m)
	defer e.close()
	check := func(st fwdStep, got [sha256.Size]byte) {
		r.calls++
		if w, ok := want[st.kind]; !ok {
			want[st.kind] = got
		} else if w != got {
			r.failed++
			note(notes, fmt.Sprintf("forward %s: logits digest changed between calls", st.kind))
		}
	}
	for _, st := range m.kinds {
		c, err := e.call(st, in)
		if err != nil {
			return r, err
		}
		check(st, c.sum)
	}
	r.setupS = time.Since(setupStart).Seconds()

	start := time.Now()
	var lastCycle time.Duration
	for ; r.cycles == 0 || time.Since(start)+lastCycle/2 < budget; r.cycles++ {
		cycleStart := time.Now()
		for _, st := range m.cycle {
			c, err := e.call(st, in)
			if err != nil {
				return r, err
			}
			r.wallMS[st.kind] = append(r.wallMS[st.kind], float64(c.wall)/1e6)
			r.cpuMS[st.kind] = append(r.cpuMS[st.kind], float64(c.cpu)/1e6)
			check(st, c.sum)
		}
		lastCycle = time.Since(cycleStart)
	}
	r.heapMB = retainedHeapMB()
	return r, nil
}

// fwdInput is the seeded input image and the digest of everything the
// forward workload feeds the engines.
func fwdInput(m *fwdModels, seed int64) (*tensor.Int8, string) {
	in := tensor.RandomInt8(tensor.Shape{N: 1, C: 3, H: 224, W: 224}, uint64(subSeed(seed, 21)))
	h := sha256.New()
	h.Write(int8Bytes(in.Data))
	for _, st := range m.cycle {
		fmt.Fprintf(h, "/%s:%s:%d", st.kind, st.net.Name, st.batch)
	}
	return in, hex.EncodeToString(h.Sum(nil))
}

// checkReference compares S's fast-path logits with the unblocked
// reference pipeline, bit for bit.
func checkReference(m *fwdModels, in *tensor.Int8) (string, error) {
	e := newFwdEngines(m)
	defer e.close()
	s := m.kinds[0]
	fast, err := e.mobile.Forward(s.net, in)
	if err != nil {
		return "", err
	}
	ref, err := e.mobile.ForwardReference(s.net, in)
	if err != nil {
		return "", err
	}
	if fast.Shape != ref.Shape || !bytes.Equal(int8Bytes(fast.Data), int8Bytes(ref.Data)) {
		return "S's forward output differs from Engine.ForwardReference", nil
	}
	return "", nil
}

// runForward is the end-to-end (trace off) run of forward_switch.
func runForward(seed int64, seconds float64, res *runResult) error {
	m, err := forwardCycle()
	if err != nil {
		return err
	}
	in, digest := fwdInput(m, seed)
	res.Env.StreamSHA256 = digest
	if msg, err := checkReference(m, in); err != nil {
		return err
	} else if msg != "" {
		res.Failed++
		note(&res.Notes, msg)
	}
	res.Attempted++

	want := map[string][sha256.Size]byte{}
	budget := time.Duration(seconds / rounds * float64(time.Second))
	var rs []fwdRound
	wallMS, cpuMS := map[string][]float64{}, map[string][]float64{}
	cycles := 0
	for i := 0; i < rounds; i++ {
		r, err := runFwdRound(m, in, budget, want, &res.Notes)
		if err != nil {
			return err
		}
		res.Attempted += r.calls
		res.Failed += r.failed
		for k := range r.wallMS {
			wallMS[k] = append(wallMS[k], r.wallMS[k]...)
			cpuMS[k] = append(cpuMS[k], r.cpuMS[k]...)
		}
		cycles += r.cycles
		rs = append(rs, r)
	}
	h := sha256.New()
	for _, st := range m.kinds {
		sum := want[st.kind]
		h.Write(sum[:])
	}
	res.Env.OutcomeSHA256 = hex.EncodeToString(h.Sum(nil))

	// Every figure is built from the quiet decile of each call kind's
	// samples over the whole run (all rounds pooled); the cycle's time is
	// the sum over its steps, the cycle as it runs undisturbed.
	quietCycleMS := func(samples map[string][]float64) float64 {
		sum := 0.0
		for _, st := range m.cycle {
			sum += quietLow(samples[st.kind])
		}
		return sum
	}
	images := float64(m.imagesPerCycle())
	res.set("setup_s", quietLow(mapOf(rs, func(r fwdRound) float64 { return r.setupS })), "s")
	res.set("queries_per_s", images/quietCycleMS(wallMS)*1e3, "1/s")
	res.set("latency_typical_us", quietLow(wallMS["S"])*1e3, "us")
	res.set("latency_tail_us", quietLow(wallMS["L"])*1e3, "us")
	res.set("cpu_us_per_query", quietCycleMS(cpuMS)*1e3/images, "us")
	res.set("memory_mb", medianOf(rs, func(r fwdRound) float64 { return r.heapMB }), "MB")
	res.Samples = fmt.Sprintf("%d rounds, %d cycles, %d kernel workers; S %d calls (quiet decile %.1f ms, median %.1f ms), L %d (%.1f, %.1f), B4 %d (%.1f, %.1f), R %d (%.1f, %.1f)",
		rounds, cycles, fwdWorkers(),
		len(wallMS["S"]), quietLow(wallMS["S"]), median(wallMS["S"]), len(wallMS["L"]), quietLow(wallMS["L"]), median(wallMS["L"]),
		len(wallMS["B4"]), quietLow(wallMS["B4"]), median(wallMS["B4"]), len(wallMS["R"]), quietLow(wallMS["R"]), median(wallMS["R"]))
	return nil
}
