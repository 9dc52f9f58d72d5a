package harness

import (
	"errors"
	"sync"
	"sync/atomic"
)

// PointFn is one independent unit of harness work: a figure point or a whole
// experiment. A point owns its engine(s) and shares
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
// A pool holds no lock. Wall-clock measurements are kept apart from other
// work by ordering it: they run after the pool has joined (see executedSweep
// and runExperiments).
type Pool struct {
	concurrency int
}

// NewPool returns a pool running at most concurrency points at once; values
// below 1 (and 1 itself) run points serially in submission order.
func NewPool(concurrency int) *Pool {
	if concurrency < 1 {
		concurrency = 1
	}
	return &Pool{concurrency: concurrency}
}

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
		// Serial fast path: identical job order to the pre-pool loops.
		for i, job := range jobs {
			errs[i] = job()
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
				errs[i] = jobs[i]()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
