package harness

import (
	"errors"
	"sync"
	"sync/atomic"
)

// PointFn is one independent unit of harness work: a figure point, a fuzz
// scenario, or a whole experiment. A point owns its engine(s) and shares
// nothing with other points except process-global resources (the Go heap,
// GOMAXPROCS), which is what makes reordered execution safe: any interleaving
// of points produces the same per-point results as running them one at a time.
type PointFn func() error

// Pool is a bounded scheduler for independent harness points. It fans jobs
// out across goroutines up to its concurrency, but keeps the observable
// output deterministic:
//
//   - results are assembled in submission order (each job writes into its own
//     slot; the pool never exposes completion order),
//   - errors are aggregated per point with errors.Join instead of aborting
//     the sweep at the first failure, so one bad cell reports alongside every
//     other bad cell no matter which goroutine hit it first,
//   - a point is a single-goroutine engine run whose result is a pure
//     function of its seed and configuration — parallel speedup comes only
//     from running points concurrently, never from reshaping a point.
//
// Process-global measurements (heap allocation accounting, wall-clock
// timing) cannot overlap other points; such sections run under
// WithAllocToken, which excludes every other in-flight point for their
// duration — including the points of the pool a nested pool (inside) runs in.
type Pool struct {
	concurrency int
	// gate is the allocation-measurement token: every running point holds the
	// read side, an alloc-gated section upgrades to the write side. A plain
	// RWMutex gives exactly the needed semantics — writers exclude all
	// readers, and a waiting writer blocks new points from starting.
	gate *sync.RWMutex
	// inline marks a pool made by inside: it runs its jobs one after another
	// on the calling point, under the read token that point already holds.
	// Taking the token again would be a recursive RLock, which deadlocks once
	// a writer waits.
	inline bool
}

// NewPool returns a pool running at most concurrency points at once; values
// below 1 (and 1 itself) run points serially in submission order.
func NewPool(concurrency int) *Pool {
	if concurrency < 1 {
		concurrency = 1
	}
	return &Pool{concurrency: concurrency, gate: new(sync.RWMutex)}
}

// inside returns the pool for work nested in one of p's points: it shares p's
// token and runs its jobs inline, so an alloc-token section reached through
// it excludes every in-flight point of p.
func (p *Pool) inside() *Pool { return &Pool{concurrency: 1, gate: p.gate, inline: true} }

// Concurrency is the maximum number of points in flight.
func (p *Pool) Concurrency() int { return p.concurrency }

// Run executes the jobs and blocks until all of them finished. Job i's error
// lands in slot i; the returned error joins every per-point error in
// submission order (nil when all points succeeded). A failing point never
// prevents the remaining points from running.
func (p *Pool) Run(jobs []PointFn) error {
	if len(jobs) == 0 {
		return nil
	}
	errs := make([]error, len(jobs))
	workers := p.concurrency
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers == 1 {
		// Serial fast path: identical job order to the pre-pool loops. The
		// token is still held (an inline pool's point holds it already) so
		// WithAllocToken behaves uniformly.
		for i, job := range jobs {
			if p.inline {
				errs[i] = job()
				continue
			}
			p.gate.RLock()
			errs[i] = job()
			p.gate.RUnlock()
		}
		return errors.Join(errs...)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				p.gate.RLock()
				errs[i] = jobs[i]()
				p.gate.RUnlock()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// WithAllocToken runs f with the pool's allocation-measurement token held:
// every other in-flight point has finished before f starts, and no new point
// starts until f returns. Heap-allocation accounting (runtime.ReadMemStats,
// Mallocs deltas) is process-global, so an allocs/txn invariant measured
// while other points execute would see their allocations; the token turns
// the measured window into a full barrier. Must only be called from inside a
// running point (the point's read token is released and re-acquired around
// f).
func (p *Pool) WithAllocToken(f func() error) error {
	p.gate.RUnlock()
	p.gate.Lock()
	err := f()
	p.gate.Unlock()
	p.gate.RLock()
	return err
}
