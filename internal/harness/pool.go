package harness

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// PointFn is one independent unit of harness work: a sweep point, a fuzz
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
// Process-global measurements (heap allocation accounting) cannot overlap
// other points; such sections run under WithAllocToken, which excludes every
// other in-flight point for their duration.
type Pool struct {
	concurrency int
	// gate is the allocation-measurement token: every running point holds the
	// read side, an alloc-gated section upgrades to the write side. A plain
	// RWMutex gives exactly the needed semantics — writers exclude all
	// readers, and a waiting writer blocks new points from starting.
	gate sync.RWMutex
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
		// Serial fast path: identical job order to the pre-pool loops. The
		// token is still held so WithAllocToken behaves uniformly.
		for i, job := range jobs {
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

// ParallelReport is the harness_parallel BENCH.json payload: the serial and
// pooled wall time of the same fixed-level sweep, the speedup, and whether
// the two runs produced bit-identical point tables (they must).
type ParallelReport struct {
	// Concurrency is the pool concurrency of the parallel pass.
	Concurrency int `json:"concurrency"`
	// PointGoroutines is the goroutine count of one point's engine run: always
	// 1. The record field predates the single-goroutine run loop and stays so
	// the committed trajectory keeps decoding.
	PointGoroutines int `json:"point_workers"`
	// Points is how many sweep points each pass measured.
	Points int `json:"points"`
	// SerialWallMS / ParallelWallMS are host wall-clock milliseconds.
	SerialWallMS   float64 `json:"serial_wall_ms"`
	ParallelWallMS float64 `json:"parallel_wall_ms"`
	// Speedup is SerialWallMS / ParallelWallMS.
	Speedup float64 `json:"speedup"`
	// Identical reports whether the two passes' island-point slices were
	// equal field for field. Anything but true is a determinism regression.
	Identical bool `json:"identical"`
}

// MeasureParallel runs the island sweep's multisite endpoints twice — once
// serially, once through the pool at the scale's concurrency — and reports
// wall times, speedup and bit-identity. It is the determinism harness behind
// the harness_parallel trajectory record: the pool may only change wall
// time, never a result.
func MeasureParallel(s Scale) (*ParallelReport, error) {
	if s.Parallel < 1 {
		s.Parallel = runtime.GOMAXPROCS(0)
	}
	par := s
	ser := s
	ser.Parallel = 1
	pcts := []int{0, 100}
	start := time.Now()
	serPts, err := IslandSweep(ser, pcts)
	serialWall := time.Since(start)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	parPts, err := IslandSweep(par, pcts)
	parallelWall := time.Since(start)
	if err != nil {
		return nil, err
	}
	identical := len(serPts) == len(parPts)
	if identical {
		for i := range serPts {
			if serPts[i] != parPts[i] {
				identical = false
				break
			}
		}
	}
	rep := &ParallelReport{
		Concurrency:     par.parallel(),
		PointGoroutines: 1,
		Points:          len(parPts),
		SerialWallMS:    float64(serialWall.Nanoseconds()) / 1e6,
		ParallelWallMS:  float64(parallelWall.Nanoseconds()) / 1e6,
		Identical:       identical,
	}
	if parallelWall > 0 {
		rep.Speedup = serialWall.Seconds() / parallelWall.Seconds()
	}
	return rep, nil
}
