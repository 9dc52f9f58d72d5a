package engine

import (
	"bytes"
	"math/rand"
	"testing"

	"atrapos/internal/core"
	"atrapos/internal/obs"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/workload"
)

// tracedDriftEngine builds the traced adaptive drift engine of the
// determinism test: chiplet machine, drifting multisite share, tracer on.
func tracedDriftEngine(t *testing.T, half vclock.Nanos) *Engine {
	t.Helper()
	prof, ok := topology.ProfileByName("chiplet-2s4d")
	if !ok {
		t.Fatal("chiplet-2s4d profile missing")
	}
	e, err := New(Config{
		Design:      SharedNothing,
		IslandLevel: topology.LevelSocket,
		Workload:    driftAcrossCrossover(8000, half),
		Topology:    prof.Build(),
		Adaptive:    true,
		AdaptiveInterval: core.IntervalConfig{
			Initial: granWindow, Max: 4 * granWindow,
		},
		TimeCompression: 1000,
		Tracing:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestTraceDeterminism: the same seed produces byte-identical trace and
// metrics documents from two independently built engines. Traced runs record
// everything in virtual time, so the exported bytes are a pure function of
// the seed — the property that makes traces diffable across hosts and harness
// parallelism.
func TestTraceDeterminism(t *testing.T) {
	half := 30 * granWindow
	runOnce := func() ([]byte, []byte, *Result) {
		e := tracedDriftEngine(t, half)
		res, err := e.Run(RunOptions{
			Duration: 2 * half, Transactions: 200_000,
			Seed: 7, SampleWindow: granWindow,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := e.Tracer()
		return tr.ExportChromeTrace(), tr.ExportMetricsCSV(), res
	}
	trace1, csv1, res := runOnce()
	trace2, csv2, _ := runOnce()
	if !bytes.Equal(trace1, trace2) {
		t.Error("two identical traced runs exported different traces")
	}
	if !bytes.Equal(csv1, csv2) {
		t.Error("two identical traced runs exported different metrics CSVs")
	}
	if err := obs.ValidateChromeTrace(trace1); err != nil {
		t.Errorf("exported trace malformed: %v", err)
	}
	if err := obs.ValidateMetricsCSV(csv1); err != nil {
		t.Errorf("exported metrics malformed: %v", err)
	}
	if len(res.RepartitionDiffs) == 0 {
		t.Fatal("drift run produced no level changes; the trace has nothing to explain")
	}
	// Every level change must be explained: a "change" decision with a full
	// per-candidate score breakdown, and the winning candidate must be the
	// level switched to.
	e := tracedDriftEngine(t, half)
	if _, err := e.Run(RunOptions{
		Duration: 2 * half, Transactions: 200_000,
		Seed: 7, SampleWindow: granWindow,
	}); err != nil {
		t.Fatal(err)
	}
	changes := 0
	for _, d := range e.Tracer().Decisions() {
		if d.Verdict != "change" {
			continue
		}
		changes++
		if len(d.Candidates) == 0 {
			t.Errorf("change decision at %d has no score breakdown", d.At)
		}
		bestLevel, bestTotal := "", 0.0
		for _, c := range d.Candidates {
			if bestLevel == "" || c.Total < bestTotal {
				bestLevel, bestTotal = c.Level, c.Total
			}
		}
		if bestLevel != d.Best {
			t.Errorf("change decision at %d switches to %s but %s scored best", d.At, d.Best, bestLevel)
		}
	}
	if changes != len(res.RepartitionDiffs) {
		t.Errorf("%d level changes but %d change decisions in the log", len(res.RepartitionDiffs), changes)
	}
	if len(e.Tracer().Samples()) == 0 {
		t.Error("traced adaptive run recorded no metrics samples")
	}
	// A boundary fires on the exact engine-wide clock, the busiest core's.
	for _, s := range e.Tracer().Samples() {
		if c := s.Clocks; c.Max != s.At || c.Min > c.Mean || c.Mean > c.Max {
			t.Errorf("sample at %d: clocks %+v", s.At, c)
		}
	}
}

// TestTracingDisabledZeroAllocs: with Config.Tracing off, the per-transaction
// execute path must not allocate — the tracing hooks reduce to one nil check.
// This is the testable form of the BenchmarkExecute 0 allocs/op invariant.
func TestTracingDisabledZeroAllocs(t *testing.T) {
	cfg := Config{Design: SharedNothing, IslandLevel: topology.LevelDie}
	cfg.Workload = workload.MustTATP(workload.TATPOptions{Subscribers: 4000})
	cfg.Topology = topology.MustNew(topology.Config{
		Sockets: 2, CoresPerSocket: 8, DiesPerSocket: 2,
	})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Tracer() != nil {
		t.Fatal("tracer built with Tracing off")
	}
	src := &splitMix{}
	rng := rand.New(src)
	sc := newExecScratch()
	ctx := workload.GenContext{Rng: rng, NumSites: e.snap.numSites()}
	n := int64(0)
	runOne := func() {
		n++
		alive := e.aliveCores()
		coord := alive[int(n)%len(alive)].ID
		src.seed(n)
		ctx.At = e.coreTime(coord)
		ctx.HomeSite = e.snap.wiring.siteOf(coord)
		txn := e.wl.Generate(&ctx)
		sc.snap = e.snap
		coord = e.dispatch(coord, txn, sc)
		e.execute(coord, txn, sc)
		e.noteTime(coord)
	}
	// Warm-up grows the reusable buffers to steady size, like the benchmark.
	for i := 0; i < 2000; i++ {
		runOne()
	}
	if allocs := testing.AllocsPerRun(2000, runOne); allocs != 0 {
		t.Errorf("execute path with tracing disabled allocates %.3f allocs/txn, want 0", allocs)
	}
}
