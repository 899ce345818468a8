package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

// sequentially runs f with GOMAXPROCS pinned to 1, where runPoints
// executes its points in order on the calling goroutine.
func sequentially(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
}

// TestRunPointsDeterministicFold pins the harness contract: parallel
// and sequential execution fill the same per-index slots, and the first
// error in grid order wins regardless of completion order.
func TestRunPointsDeterministicFold(t *testing.T) {
	const n = 37
	// 4 workers even on a one-core host, so the parallel arm is real.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, mode := range []struct {
		name string
		exec func(func())
	}{{"parallel", func(f func()) { f() }}, {"sequential", sequentially}} {
		out := make([]int, n)
		mode.exec(func() {
			if err := runPoints(n, func(i int) error {
				out[i] = i * i
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
		for i, v := range out {
			if v != i*i {
				t.Fatalf("%s: slot %d = %d, want %d", mode.name, i, v, i*i)
			}
		}
	}

	errA, errB := errors.New("a"), errors.New("b")
	var calls atomic.Int64
	err := runPoints(8, func(i int) error {
		calls.Add(1)
		switch i {
		case 3:
			return errB
		case 2:
			return errA
		}
		return nil
	})
	if err != errA {
		t.Fatalf("first-in-grid-order error = %v, want %v", err, errA)
	}
}

// TestExperimentsParallelMatchSequential is the tentpole's identity
// check at experiment granularity: every parallelized experiment must
// produce a deeply equal Result on several workers and on one. (The
// sha256 goldens in the root package pin the same property against
// recorded digests; this test localizes a break to the harness.)
func TestExperimentsParallelMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every fleet experiment twice")
	}
	runs := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"loadsweep", func() (*Result, error) { return LoadSweep(MobileNetV3, 120) }},
		{"batchsweep", func() (*Result, error) { return BatchSweep(MobileNetV3, 120) }},
		{"hetero", func() (*Result, error) { return Hetero(MobileNetV3, 80) }},
		{"multitenant", func() (*Result, error) { return MultiTenant(160) }},
		{"elastic", func() (*Result, error) { return Elastic(160) }},
		{"cohortsweep", func() (*Result, error) { return CohortSweep(160) }},
	}
	// 4 workers even on a one-core host, so the parallel arm is real.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range runs {
		par, err := tc.run()
		if err != nil {
			t.Fatalf("%s (parallel): %v", tc.name, err)
		}
		var seq *Result
		sequentially(func() { seq, err = tc.run() })
		if err != nil {
			t.Fatalf("%s (sequential): %v", tc.name, err)
		}
		if !reflect.DeepEqual(par, seq) {
			t.Errorf("%s: parallel Result differs from sequential:\n%s\nvs\n%s",
				tc.name, par.String(), seq.String())
		}
	}
}

// TestFrontierMemoRejectsUnknownWorkloads: unknown workload names are
// rejected before the frontier memo, so however many arrive they take
// no entry, and the real families stay memoized (pointer-equal
// frontiers, which serving's table-build memo keys on).
func TestFrontierMemoRejectsUnknownWorkloads(t *testing.T) {
	for i := 0; i < 20; i++ {
		if _, _, err := frontierFor(Workload(fmt.Sprintf("fig10:x%d", i))); err == nil {
			t.Fatalf("unknown workload %d accepted", i)
		}
	}
	if n := len(frontierCache); n > 2 {
		t.Errorf("frontier memo holds %d entries after 20 unknown names, want at most 2", n)
	}
	_, a, err := frontierFor(MobileNetV3)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := frontierFor(MobileNetV3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || &a[0] != &b[0] {
		t.Error("two MobileNetV3 derivations returned different frontiers")
	}
}
