package main

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"time"

	"atrapos/internal/engine"
	"atrapos/internal/wal"
)

// sizing scales a run. The benchmark runs at fullSize; the -short smoke test
// runs every workload at about 1/100 of it.
type sizing struct {
	rows int
	// segScale multiplies spec.segTxns.
	segScale float64
	// segments is the number of timed segments per pass (after one untimed
	// warm-up segment).
	segments int
	// minPasses is the least number of passes whatever the time budget.
	minPasses int
}

var fullSize = sizing{rows: rows, segScale: 1, segments: 8, minPasses: 2}

func (z sizing) segTxns(s spec) int {
	n := int(float64(s.segTxns) * z.segScale)
	if n < 50 {
		n = 50
	}
	return n
}

func (z sizing) twinTxns() int { return max(int(twinTxns*z.segScale), 50) }

// segSeed is the seed of segment i of a pass. The engines seed transaction n
// with Seed+n, so adjacent seeds would replay one stream shifted by one
// transaction: the benchmark's seed is scrambled first (seeds 1 and 2 must be
// different inputs, not the same input one transaction later) and segments
// are 2^32 apart.
func segSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	base := int64((z ^ (z >> 31)) >> 2) // 62 bits: room for the segment offset
	return base + int64(i)<<32
}

// counts are the scheduler-independent outputs of a stretch of segments. Two
// passes over the same seeds must produce equal counts: that is the "pure
// function of (seed, config)" oracle of ROADMAP aim 3.
type counts struct {
	Attempted    int64
	Committed    int64
	Aborted      int64
	VirtualNS    int64
	Repartitions int64
	Log          wal.Stats
}

func (c *counts) add(o counts) {
	c.Attempted += o.Attempted
	c.Committed += o.Committed
	c.Aborted += o.Aborted
	c.VirtualNS += o.VirtualNS
	c.Repartitions += o.Repartitions
	c.Log = c.Log.Add(o.Log)
}

// segment is what one Run/RunExecuted call measured: its wall time on the
// benchmark's own clock, its counts, and the engine's full result (priced or
// executed, the other nil) for the traced run's per-layer counts.
type segment struct {
	wallNS int64
	counts
	priced   *engine.Result
	executed *engine.ExecutedResult
}

// runSegment runs one segment through the workload's public entry point and
// checks its accounting.
func runSegment(e *engine.Engine, s spec, txns int, seed int64) (segment, error) {
	opts := engine.RunOptions{Transactions: txns, Seed: seed}
	var sg segment
	var err error
	start := time.Now()
	if s.executed {
		sg.executed, err = e.RunExecuted(opts)
	} else {
		sg.priced, err = runPriced(e, opts)
	}
	sg.wallNS = time.Since(start).Nanoseconds()
	if err != nil {
		return sg, err
	}
	if s.executed {
		sg.counts = counts{Attempted: int64(txns), Committed: sg.executed.Committed, Log: sg.executed.Log}
	} else {
		sg.counts = pricedCounts(txns, sg.priced)
	}
	if sg.Committed <= 0 || sg.Committed+sg.Aborted != sg.Attempted {
		return sg, fmt.Errorf("segment seed %d: attempted %d != committed %d + aborted %d (or nothing committed)",
			seed, sg.Attempted, sg.Committed, sg.Aborted)
	}
	if s.executed && sg.Committed != int64(txns) {
		return sg, fmt.Errorf("segment seed %d: executed run committed %d of %d", seed, sg.Committed, txns)
	}
	return sg, nil
}

// runPriced is the one place that sets the priced worker count.
func runPriced(e *engine.Engine, opts engine.RunOptions) (*engine.Result, error) {
	opts.Workers = pricedWorkers
	return e.Run(opts)
}

func pricedCounts(txns int, r *engine.Result) counts {
	return counts{
		Attempted:    int64(txns),
		Committed:    r.Committed,
		Aborted:      r.Aborted,
		VirtualNS:    int64(r.VirtualTime),
		Repartitions: r.Repartitions,
		Log:          r.Log,
	}
}

// pass is what one pass over a workload measured.
type pass struct {
	setupS float64
	// segNS are the wall times of the timed segments.
	segNS []float64
	// timed sums the timed segments' counts; twin is the priced twin run of an
	// executed workload (zero for priced workloads).
	timed, twin  counts
	allocsPerTxn float64
	heapMiB      float64
}

// buildEngine is the timed set-up: workload and schema build, data load,
// placement derivation and engine wiring — everything before the first
// transaction can run.
func buildEngine(s spec, z sizing) (*engine.Engine, float64, error) {
	start := time.Now()
	cfg, err := s.config(z.rows)
	if err != nil {
		return nil, 0, err
	}
	e, err := engine.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	return e, time.Since(start).Seconds(), nil
}

// runPass builds a fresh engine, runs one warm-up and z.segments timed
// segments on it, measures the live heap with the engine still referenced, and
// drops the engine.
func runPass(s spec, z sizing, seed int64) (pass, error) {
	var p pass
	e, setupS, err := buildEngine(s, z)
	if err != nil {
		return p, err
	}
	p.setupS = setupS
	txns := z.segTxns(s)
	if _, err := runSegment(e, s, txns, segSeed(seed, 0)); err != nil {
		return p, fmt.Errorf("warm-up: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= z.segments; i++ {
		sg, err := runSegment(e, s, txns, segSeed(seed, i))
		if err != nil {
			return p, err
		}
		p.segNS = append(p.segNS, float64(sg.wallNS))
		p.timed.add(sg.counts)
	}
	runtime.ReadMemStats(&after)
	p.allocsPerTxn = float64(after.Mallocs-before.Mallocs) / float64(p.timed.Attempted)

	if s.executed {
		// The priced twin: the same engine and traffic through the cost model,
		// so an executed workload too reports what the reproduction predicts
		// for its configuration (the pair core.FitCalibration compares).
		n := z.twinTxns()
		r, err := runPriced(e, engine.RunOptions{Transactions: n, Seed: segSeed(seed, z.segments+1)})
		if err != nil {
			return p, fmt.Errorf("priced twin: %w", err)
		}
		p.twin = pricedCounts(n, r)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	p.heapMiB = float64(after.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(e)
	return p, nil
}

// twinTxns is the length, at scale 1, of the priced twin run of an executed
// pass: enough transactions that virtual_tps moves about 1% from seed to seed.
const twinTxns = 20_000

// staticAllocBudget is the allocation ceiling, per transaction, of every
// workload that does not repartition (DESIGN.md section 7 pins the hot paths
// at zero). A run's own bookkeeping is a few hundred allocations, so the
// ceiling means something from allocBudgetMinTxns transactions a segment up.
const (
	staticAllocBudget  = 1.0
	allocBudgetMinTxns = 1000
)

// report is one workload's end-to-end outcome.
type report struct {
	spec    spec
	seed    int64
	passes  []pass
	segNS   []float64 // every timed segment of every pass
	segTxns int
	// attempted and failed count transactions over all timed segments;
	// problems lists the output checks that failed (empty = correct).
	attempted, failed int64
	problems          []string
	host              hostInfo
	disturbance       disturbance
}

// runEndToEnd makes passes over one workload until the time budget is spent
// (at least z.minPasses), each replaying the same seed sequence, and checks
// the outputs.
func runEndToEnd(s spec, z sizing, seed int64, budget time.Duration) (*report, error) {
	rep := &report{spec: s, seed: seed, segTxns: z.segTxns(s), host: fingerprint()}
	steal := startSteal()
	start := time.Now()
	var passDur time.Duration
	for p := 0; p < z.minPasses || time.Since(start)+passDur/2 < budget; p++ {
		t0 := time.Now()
		ps, err := runPass(s, z, seed)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", s.name, p, err)
		}
		rep.passes = append(rep.passes, ps)
		rep.segNS = append(rep.segNS, ps.segNS...)
		rep.attempted += ps.timed.Attempted
		rep.failed += ps.timed.Attempted - ps.timed.Committed
		// One engine is live at a time: collect the dropped one now, untimed,
		// so its garbage is not billed to the next pass's segments.
		runtime.GC()
		passDur = time.Since(t0)
	}
	rep.disturbance = steal.stop(rep.segNS)
	rep.check()
	if s.drill {
		problem, err := crashDrill(s, z, seed)
		if err != nil {
			return nil, fmt.Errorf("%s crash drill: %w", s.name, err)
		}
		if problem != "" {
			rep.problems = append(rep.problems, problem)
			rep.failed = rep.attempted
		}
	}
	return rep, nil
}

// drillTxns is the length of the crash drill's run at scale 1.
const drillTxns = 20_000

// crashDrill is the durability check: on a fresh engine that retains its whole
// log, run transactions, crash (drop everything the log covers), recover from
// the log alone, and demand the key sets it had before, every committed
// transaction a winner and no loser. It returns what failed, or "".
func crashDrill(s spec, z sizing, seed int64) (string, error) {
	cfg, err := s.config(z.rows)
	if err != nil {
		return "", err
	}
	lc := wal.DefaultConfig()
	if cfg.LogConfig != nil {
		lc = *cfg.LogConfig
	}
	lc.Keep = 0 // a bounded ring cannot replay the full history
	cfg.LogConfig = &lc
	e, err := engine.New(cfg)
	if err != nil {
		return "", err
	}
	n := max(int(drillTxns*z.segScale), 200)
	res, err := runPriced(e, engine.RunOptions{Transactions: n, Seed: segSeed(seed, 0)})
	if err != nil {
		return "", err
	}
	before := e.TableKeySets()
	stats, err := e.CrashAndRecover()
	if err != nil {
		return "", err
	}
	if after := e.TableKeySets(); !reflect.DeepEqual(before, after) {
		return "crash drill: recovered key sets differ from the key sets before the crash", nil
	}
	if int64(stats.WinnerTxns) != res.Committed || stats.LoserTxns != 0 {
		return fmt.Sprintf("crash drill: %d winners and %d losers recovered, want %d and 0",
			stats.WinnerTxns, stats.LoserTxns, res.Committed), nil
	}
	return "", nil
}

// check runs the cross-pass output checks and records what failed.
func (r *report) check() {
	first := r.passes[0]
	for i, p := range r.passes[1:] {
		diffs := append(diffCounts("", r.replayable(first.timed), r.replayable(p.timed)),
			diffCounts("twin.", first.twin, p.twin)...)
		if len(diffs) > 0 {
			r.problems = append(r.problems, fmt.Sprintf("pass %d is not a replay of pass 0: %s", i+1, strings.Join(diffs, ", ")))
		}
	}
	if !r.spec.adaptive && r.segTxns >= allocBudgetMinTxns {
		for i, p := range r.passes {
			if p.allocsPerTxn >= staticAllocBudget {
				r.problems = append(r.problems, fmt.Sprintf(
					"pass %d: %.2f allocs/txn on a static workload (budget %.0f)", i, p.allocsPerTxn, staticAllocBudget))
			}
		}
	}
	if len(r.problems) > 0 {
		r.failed = r.attempted
	}
}

// replayable returns the counts a replay must repeat exactly. That is all of
// them for a priced workload. An executed run's value-log byte count is the
// one number that depends on the scheduler: how remote commit records
// interleave with the owner's own appends decides what each group flush
// carries (+-100 B in 31 MB on exec-multisite), so executed passes are
// compared without it.
func (r *report) replayable(c counts) counts {
	if r.spec.executed {
		c.Log.PhysicalBytes = 0
	}
	return c
}

// diffCounts names the fields in which two counts differ, with both values.
func diffCounts(prefix string, want, got counts) []string {
	var out []string
	var walk func(name string, w, g reflect.Value)
	walk = func(name string, w, g reflect.Value) {
		if w.Kind() == reflect.Struct {
			for i := 0; i < w.NumField(); i++ {
				walk(name+"."+w.Type().Field(i).Name, w.Field(i), g.Field(i))
			}
			return
		}
		if w.Int() != g.Int() {
			out = append(out, fmt.Sprintf("%s%s %d, want %d", prefix, strings.TrimPrefix(name, "."), g.Int(), w.Int()))
		}
	}
	walk("", reflect.ValueOf(want), reflect.ValueOf(got))
	return out
}

// passWorkNS is the wall time of one pass's timed work on an undisturbed host.
// Every pass runs the same work at the same segment index, so the passes are
// repeats of it (segments of one pass are not: a drifting workload
// repartitions more in some than in others). Per index it takes the lower
// quartile of the repeats and sums over the indexes. The lower quartile, not
// the median: what disturbs this host — steal, a neighbour on the core's
// cache — lasts seconds and only ever adds time, and measured over 100 s
// series the fast side repeats between 12 s windows where the median does not
// (README.md, "Sizing and noise").
func (r *report) passWorkNS() float64 {
	var sum float64
	repeats := make([]float64, len(r.passes))
	for i := range r.passes[0].segNS {
		for p := range r.passes {
			repeats[p] = r.passes[p].segNS[i]
		}
		sum += quantile(repeats, 0.25)
	}
	return sum
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics computes the end-to-end metrics of BENCHMARK.json from the
// passes. Timings are medians over all timed segments (or passes); counts come
// from pass 0, which check() has shown every other pass repeats.
func (r *report) endToEndMetrics() map[string]metric {
	var setups, heaps []float64
	for _, p := range r.passes {
		setups = append(setups, p.setupS)
		heaps = append(heaps, p.heapMiB)
	}
	first := r.passes[0]
	virtual := first.timed
	if r.spec.executed {
		virtual = first.twin
	}
	return map[string]metric{
		"setup_s":           {median(setups), "s"},
		"host_txn_per_s":    {float64(first.timed.Attempted) / (r.passWorkNS() / 1e9), "txn/s"},
		"virtual_tps":       {float64(virtual.Committed) / (float64(virtual.VirtualNS) / 1e9), "txn/vs"},
		"log_bytes_per_txn": {float64(first.timed.Log.PhysicalBytes) / float64(first.timed.Committed), "B"},
		"live_heap_mb":      {median(heaps), "MiB"},
	}
}
