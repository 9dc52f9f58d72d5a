package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"atrapos/internal/backend"
	"atrapos/internal/topology"
	"atrapos/internal/wal"
	"atrapos/internal/workload"
)

// benchEngine builds a TATP engine on a small machine for hot-path benches.
func benchEngine(b *testing.B, cfg Config) *Engine {
	b.Helper()
	cfg.Workload = workload.MustTATP(workload.TATPOptions{Subscribers: 4000})
	cfg.Topology = smallTopology()
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// benchSteadyState measures the per-transaction cost of the steady-state
// execution path of one design: generate, dispatch and execute, exactly as
// Run's loop does, without the per-run setup. The first iterations
// grow the reusable buffers; after the warmup below, the partitioned designs
// must report 0 allocs/op (the hot-path invariant DESIGN.md documents).
func benchSteadyState(b *testing.B, e *Engine, adapt bool) {
	b.Helper()
	src := &splitMix{}
	rng := rand.New(src)
	sc := newExecScratch()
	ctx := workload.GenContext{Rng: rng, NumSites: e.snap.numSites()}
	var committed int64

	runOne := func(n int64) {
		alive := e.aliveCores()
		coord := alive[int(n)%len(alive)].ID
		src.seed(n)
		ctx.At = e.coreTime(coord)
		ctx.HomeSite = e.snap.wiring.siteOf(coord)
		t := e.wl.Generate(&ctx)
		sc.snap = e.snap
		coord = e.dispatch(coord, t, sc)
		ok := e.execute(coord, t, sc)
		e.noteTime(coord)
		if ok {
			committed++
			e.accounts[coord].committed++
		}
		if adapt && e.adaptive != nil {
			// The run loop's adaptation obligation: the shape counters
			// (granularity mode) and the boundary check, which runs the
			// planner inline whenever a monitoring boundary is crossed.
			e.adaptive.recordTxn(coord, t)
			e.adaptive.noteBoundary(committed, 0)
		}
	}

	// Warm up: grow every reusable buffer, pool and cache to its steady size.
	for i := int64(0); i < 2000; i++ {
		runOne(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOne(int64(i) + 2000)
	}
}

// BenchmarkExecute reports the simulator's real (wall-clock and allocation)
// cost per simulated transaction for every design on the TATP mix.
//
//	go test -bench BenchmarkExecute -benchmem ./internal/engine
func BenchmarkExecute(b *testing.B) {
	b.Run("centralized", func(b *testing.B) {
		benchSteadyState(b, benchEngine(b, Config{Design: Centralized}), false)
	})
	b.Run("shared-nothing-core", func(b *testing.B) {
		benchSteadyState(b, benchEngine(b, Config{Design: SharedNothing, IslandLevel: topology.LevelCore}), false)
	})
	b.Run("shared-nothing-die", func(b *testing.B) {
		// The parametric design at die granularity on a hierarchical machine:
		// exercises the die-level cost terms and per-island logs on the hot
		// path, which must stay allocation free like every other design.
		cfg := Config{Design: SharedNothing, IslandLevel: topology.LevelDie}
		cfg.Workload = workload.MustTATP(workload.TATPOptions{Subscribers: 4000})
		cfg.Topology = topology.MustNew(topology.Config{
			Sockets: 2, CoresPerSocket: 8, DiesPerSocket: 2,
		})
		e, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchSteadyState(b, e, false)
	})
	b.Run("plp", func(b *testing.B) {
		benchSteadyState(b, benchEngine(b, Config{Design: PLP}), false)
	})
	b.Run("hw-aware", func(b *testing.B) {
		benchSteadyState(b, benchEngine(b, Config{Design: HWAware}), false)
	})
	b.Run("atrapos", func(b *testing.B) {
		// Monitoring on: the steady-state ATraPos path records every action
		// and synchronization point into the monitor.
		benchSteadyState(b, benchEngine(b, Config{Design: ATraPos, Monitoring: true}), false)
	})
	b.Run("atrapos-adaptive", func(b *testing.B) {
		// Full adaptive loop including the per-transaction boundary check.
		benchSteadyState(b, benchEngine(b, Config{Design: ATraPos, Adaptive: true}), true)
	})
	b.Run("shared-nothing-devices", func(b *testing.B) {
		// Per-island logs bound to modeled log devices: every group commit
		// runs the device's queueing model, which must be as allocation free
		// as the flat flush cost it replaces.
		cfg := Config{Design: SharedNothing, IslandLevel: topology.LevelDie, DeviceLayout: "nvme-per-die-pair"}
		cfg.Workload = workload.MustTATP(workload.TATPOptions{Subscribers: 4000})
		cfg.Topology = topology.MustNew(topology.Config{
			Sockets: 2, CoresPerSocket: 8, DiesPerSocket: 2,
		})
		e, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchSteadyState(b, e, false)
	})
	b.Run("shared-nothing-adaptive", func(b *testing.B) {
		// Adaptive granularity: the obligations on top of the plain
		// shared-nothing path are the transaction-shape counters and the
		// boundary check — still allocation free between boundaries.
		benchSteadyState(b, benchEngine(b, Config{Design: SharedNothing, Adaptive: true}), true)
	})
	b.Run("executed-hash", func(b *testing.B) {
		// The executed backend's steady state, driven inline on the bench
		// goroutine (machine grain = one executor, every op local): generate,
		// route, real index ops, value-log group commit. The executed budget
		// is ≤ 1 alloc/op where the priced designs must hold exactly 0;
		// TestExecutedAllocBudget asserts it over full RunExecuted runs.
		cfg := Config{Design: SharedNothing, IslandLevel: topology.LevelMachine, Backend: backend.Hash}
		cfg.Workload = workload.MustTATP(workload.TATPOptions{Subscribers: 4000})
		cfg.Topology = smallTopology()
		e, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		snap := e.snap
		if err := e.loadBackend(snap); err != nil {
			b.Fatal(err)
		}
		ex := backend.NewExecutors(e.HashBackend())[0]
		w := snap.wiring
		src := &splitMix{}
		ctx := workload.GenContext{Rng: rand.New(src), NumSites: 1}
		runOne := func(n int64) {
			src.seed(n)
			t := e.wl.Generate(&ctx)
			txnID := uint64(n + 1)
			for ai := range t.Actions {
				a := &t.Actions[ai]
				ti := e.tableIdx[a.Table]
				ex.Stage(backendOp(a.Op), w.siteOf(snap.tps[ti].CoreFor(a.Key)), ti, a.Key, txnID, uint64(a.Key))
			}
			ex.CommitLocal(txnID)
		}
		for i := int64(0); i < 2000; i++ {
			runOne(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runOne(int64(i) + 2000)
		}
	})
	b.Run("shared-nothing-coalescing", func(b *testing.B) {
		// Write-combining group commit: staging, folding and physical flushes
		// on every commit path, on the zipf-hotkey write shape that exercises
		// the accumulator hardest. Must stay allocation free once the staging
		// slice pool and net-delta buffers have warmed up.
		lc := wal.DefaultConfig()
		lc.CoalesceRecords = 8
		cfg := Config{Design: SharedNothing, IslandLevel: topology.LevelDie, LogConfig: &lc}
		cfg.Workload = workload.ZipfHotkey(4000, 10, 30)
		cfg.Topology = topology.MustNew(topology.Config{
			Sockets: 2, CoresPerSocket: 8, DiesPerSocket: 2,
		})
		e, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchSteadyState(b, e, false)
	})
}

// BenchmarkLoad reports what engine.New costs per loaded row on TATP (13 rows
// per subscriber over four tables), almost all of it the bulk load: ns/row,
// allocs/row, the heap the built engine still holds per row after a
// collection (retained-B/row), and that heap per byte of logical row data,
// the rows' summed Row.Size (retained-B/logical-B, the space amplification).
//
//	go test -run '^$' -bench BenchmarkLoad -benchmem ./internal/engine
func BenchmarkLoad(b *testing.B) {
	for _, subs := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("subscribers=%d", subs), func(b *testing.B) {
			wl := workload.MustTATP(workload.TATPOptions{Subscribers: subs})
			rows, logical := 0, 0
			for _, td := range wl.Tables {
				rows += td.Rows
				w := td.Schema.Layout().Writer()
				for i := range td.Rows {
					w.Reset()
					td.RowGen(i, w)
					_, size, _ := w.Row()
					logical += size
				}
			}
			var before, built, collected runtime.MemStats
			var mallocs, retained uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				runtime.ReadMemStats(&before)
				b.StartTimer()
				e, err := New(Config{Design: Centralized, Workload: wl, Topology: smallTopology()})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				runtime.ReadMemStats(&built)
				runtime.GC()
				runtime.ReadMemStats(&collected)
				runtime.KeepAlive(e)
				mallocs += built.Mallocs - before.Mallocs
				retained += collected.HeapAlloc - before.HeapAlloc
				b.StartTimer()
			}
			total := float64(b.N * rows)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/row")
			b.ReportMetric(float64(mallocs)/total, "allocs/row")
			b.ReportMetric(float64(retained)/total, "retained-B/row")
			b.ReportMetric(float64(retained)/float64(b.N*logical), "retained-B/logical-B")
		})
	}
}

// BenchmarkRunExecuted is the executed engine end to end: RunExecuted on
// chiplet-2s4d at socket, die and core level (2, 8 and 32 executors) over
// MultisiteUpdate with 20 % and 100 % of its transactions multisite, plus
// site-local YCSB-B over 100,000 rows at socket level (the repo benchmark's
// exec-local shape, where the generator and the clock reads are most of the
// time), b.N transactions in one run, reported as txn/s. Each cell builds and
// loads its engine once, outside the timer; later b.N rounds continue from
// the state the previous one left. Run at GOMAXPROCS=1 and 2 it is the shape
// matrix the ship wait's spin bound (backend.shipSpins) is sized against: 32
// executors on one P is where a spinning sender steals turns from the owner
// it waits for.
func BenchmarkRunExecuted(b *testing.B) {
	type cell struct {
		name  string
		level topology.Level
		wl    *workload.Workload
	}
	var cells []cell
	for _, level := range []topology.Level{topology.LevelSocket, topology.LevelDie, topology.LevelCore} {
		for _, pct := range []int{20, 100} {
			cells = append(cells, cell{fmt.Sprintf("%v/multisite=%d", level, pct), level, workload.MultisiteUpdate(100_000, pct)})
		}
	}
	cells = append(cells, cell{"socket/ycsb-b", topology.LevelSocket, workload.YCSB(100_000, workload.YCSBB)})
	for _, c := range cells {
		var e *Engine
		b.Run(c.name, func(b *testing.B) {
			if e == nil {
				e = executedEngine(b, c.wl, c.level, false)
				// The first run loads the backend from the priced tables.
				if _, err := e.RunExecuted(RunOptions{Transactions: 1000, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			res, err := e.RunExecuted(RunOptions{Transactions: b.N, Seed: 42})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if res.Committed != int64(b.N) {
				b.Fatalf("committed %d of %d", res.Committed, b.N)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "txn/s")
		})
	}
}
