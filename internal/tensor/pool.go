package tensor

import (
	"runtime"
	"sync/atomic"
)

// Pool is the bounded worker pool the blocked kernels parallelize over.
// Work is handed out as disjoint block indices through an atomic cursor,
// so every block runs exactly once on exactly one worker; callers write
// disjoint output ranges per block, which makes the result independent
// of scheduling order (and therefore of the worker count — the parity
// suite pins workers=1 == workers=K).
//
// Worker goroutines are spawned lazily on the first parallel Run and
// released by Close. A Pool is driven by one goroutine at a time: Run
// must not be called concurrently with itself or from inside a block
// function. A nil *Pool (and a 1-worker pool) runs everything inline.
type Pool struct {
	workers int
	started bool
	run     func(worker, block int)
	next    atomic.Int64
	total   atomic.Int64
	start   chan struct{}
	done    chan struct{}
}

// NewPool builds a pool of the given width; workers <= 0 means
// GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		workers: workers,
		start:   make(chan struct{}, workers),
		done:    make(chan struct{}, workers),
	}
}

// Workers reports the pool width (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// parallel reports whether Run would actually fan out. The sequential
// kernels branch on this before building a closure, so the inline path
// stays allocation-free.
func (p *Pool) parallel() bool { return p != nil && p.workers > 1 }

// Run invokes f(worker, 0..n-1) across the pool and returns when every
// block has completed. worker is the index (below Workers()) of the
// goroutine running the block, so f may keep per-worker scratch. With a
// nil/1-wide pool the blocks run inline, in order, as worker 0.
func (p *Pool) Run(n int, f func(worker, block int)) {
	if !p.parallel() || n <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	if !p.started {
		p.started = true
		for i := 0; i < p.workers; i++ {
			go p.worker(i)
		}
	}
	p.run = f
	p.total.Store(int64(n))
	p.next.Store(0)
	for i := 0; i < p.workers; i++ {
		p.start <- struct{}{}
	}
	for i := 0; i < p.workers; i++ {
		<-p.done
	}
	p.run = nil
}

func (p *Pool) worker(id int) {
	for range p.start {
		f := p.run
		for {
			i := p.next.Add(1) - 1
			if i >= p.total.Load() {
				break
			}
			f(id, int(i))
		}
		p.done <- struct{}{}
	}
}

// Close releases the worker goroutines. The pool must not be used
// afterwards. Closing a pool that never went parallel is a no-op.
func (p *Pool) Close() {
	if p == nil || !p.started {
		return
	}
	close(p.start)
	p.started = false
}
