package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"atrapos/internal/backend"
	"atrapos/internal/fault"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/wal"
	"atrapos/internal/workload"
)

// executedEngine builds a shared-nothing engine with the hash backend at the
// given level on chiplet-2s4d. keepAll retains the full value-log history
// (wal Keep=0) for recovery drills; otherwise the default config, which
// retains no records, is used, which is what the allocation budget measures.
func executedEngine(t testing.TB, wl *workload.Workload, level topology.Level, keepAll bool) *Engine {
	t.Helper()
	prof, _ := topology.ProfileByName("chiplet-2s4d")
	lc := wal.DefaultConfig()
	if keepAll {
		lc.Keep = 0
		lc.CoalesceRecords = 16
	}
	e, err := New(Config{
		Design:      SharedNothing,
		IslandLevel: level,
		Workload:    wl,
		Topology:    prof.Build(),
		LogConfig:   &lc,
		Backend:     backend.Hash,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestHashBackendRejectsAdaptive: the hash backend is laid out for the wiring
// New installs, so New refuses it together with the adaptive planner, which
// could re-wire the islands under it.
func TestHashBackendRejectsAdaptive(t *testing.T) {
	_, err := New(Config{
		Design:      SharedNothing,
		IslandLevel: topology.LevelSocket,
		Workload:    workload.YCSB(2000, workload.YCSBB),
		Topology:    chipletTopology(),
		Backend:     backend.Hash,
		Adaptive:    true,
	})
	if err == nil {
		t.Fatal("New accepted the hash backend with Adaptive")
	}
}

// TestRunExecutedRejectsIgnoredOptions: RunExecuted reads only Transactions
// and Seed, so a caller who sets anything a priced run would honour gets an
// error naming the field, not a run that silently drops it.
func TestRunExecutedRejectsIgnoredOptions(t *testing.T) {
	e := executedEngine(t, workload.YCSB(2000, workload.YCSBB), topology.LevelSocket, false)
	sched, err := fault.NewSchedule(fault.Machine{Sockets: 2, Devices: 0}, fault.FailSocket(granWindow, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field string
		opts  RunOptions
	}{
		{"Duration", RunOptions{Transactions: 100, Duration: granWindow}},
		{"SampleWindow", RunOptions{Transactions: 100, SampleWindow: granWindow}},
		{"Faults", RunOptions{Transactions: 100, Faults: sched}},
	} {
		if _, err := e.RunExecuted(tc.opts); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s set: error %v, want one naming the field", tc.field, err)
		}
	}
	if _, err := e.RunExecuted(RunOptions{Transactions: 100, Seed: 3}); err != nil {
		t.Fatalf("Transactions and Seed alone: %v", err)
	}
}

// TestExecutedCrashDrillEquivalence mirrors TestCrashDrillEquivalence on the
// executed backend: CrashAndRecover drops every in-memory index and replays
// the island value logs, and the recovered keyset must equal the fault-free
// twin's. Machine-grained (one island) keeps the executed run's keyset fully
// deterministic — TATP's inserts and deletes on the same key are ordered by
// the single executor, so the twin comparison is exact.
func TestExecutedCrashDrillEquivalence(t *testing.T) {
	mk := func() *workload.Workload {
		return workload.MustTATP(workload.TATPOptions{Subscribers: 2000})
	}
	const txns = 1500

	ref := executedEngine(t, mk(), topology.LevelMachine, true)
	refRes, err := ref.RunExecuted(RunOptions{Transactions: txns, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if refRes.Committed != txns {
		t.Fatalf("executed run committed %d, want %d", refRes.Committed, txns)
	}
	want := ref.HashBackend().TableKeySets()

	drill := executedEngine(t, mk(), topology.LevelMachine, true)
	drillRes, err := drill.RunExecuted(RunOptions{Transactions: txns, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if drillRes.Committed != refRes.Committed {
		t.Fatalf("twin committed %d, ref %d", drillRes.Committed, refRes.Committed)
	}
	if err := drill.HashBackend().CrashAndRecover(); err != nil {
		t.Fatal(err)
	}
	if where, ok := keySetsEqual(want, drill.HashBackend().TableKeySets()); !ok {
		t.Errorf("recovered keyset differs from fault-free twin at %s", where)
	}
	// The drill must actually have replayed something.
	total := 0
	for _, keys := range want {
		total += len(keys)
	}
	if total == 0 {
		t.Fatal("empty keysets; the drill recovered nothing")
	}
}

// TestExecutedDeterministic asserts the executed run's logical outcome is a
// pure function of the seed: committed counts and final keysets are identical
// across repeats and across island granularities (only wall times may vary).
func TestExecutedDeterministic(t *testing.T) {
	mk := func() *workload.Workload {
		return workload.MustTATP(workload.TATPOptions{Subscribers: 1000})
	}
	const txns = 800
	a := executedEngine(t, mk(), topology.LevelMachine, false)
	resA, err := a.RunExecuted(RunOptions{Transactions: txns, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b := executedEngine(t, mk(), topology.LevelMachine, false)
	resB, err := b.RunExecuted(RunOptions{Transactions: txns, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if resA.Committed != resB.Committed {
		t.Fatalf("committed differs across repeats: %d vs %d", resA.Committed, resB.Committed)
	}
	if where, ok := keySetsEqual(a.HashBackend().TableKeySets(), b.HashBackend().TableKeySets()); !ok {
		t.Errorf("keysets differ across repeats at %s", where)
	}
	if resA.MeasuredKTPS <= 0 {
		t.Errorf("MeasuredKTPS = %v, want > 0", resA.MeasuredKTPS)
	}
	if resA.Components[vclock.Execution] <= 0 {
		t.Errorf("no measured execution time: %v", resA.Components)
	}
	if resA.Components[vclock.Locking] != 0 {
		t.Errorf("single-owner shards must measure zero locking time, got %d", resA.Components[vclock.Locking])
	}
	if resA.Log.Appends == 0 {
		t.Error("executed run appended nothing to the value logs")
	}
}

// replayStream regenerates the transactions of a run with opts and hands each
// to visit with the site that generated it. Both run loops seed transaction n
// with Seed+n; home(n) is where the loop in question generates it, of the
// sites sites its generator sees. The replay is exact for a static wiring and
// a generator that ignores GenContext.At, which the multisite microbenchmark
// does. visit must consume the transaction before it returns.
func replayStream(e *Engine, opts RunOptions, sites int, home func(n int64) int, visit func(home int, t *workload.Transaction)) {
	src := &splitMix{}
	ctx := workload.GenContext{Rng: rand.New(src), NumSites: sites}
	for n := int64(1); n <= int64(opts.Transactions); n++ {
		src.seed(opts.Seed + n)
		ctx.HomeSite = home(n)
		visit(ctx.HomeSite, e.wl.Generate(&ctx))
	}
}

// executedHome is where RunExecuted generates and runs transaction n.
func executedHome(islands int) func(n int64) int {
	return func(n int64) int { return int(n % int64(islands)) }
}

// checkConserved is the counter-conservation oracle (ROADMAP direction 3) for
// increment-only workloads: a row's counter ends a run at the value it started
// with plus the increments the run committed to it. The finished run's stream
// is replayed (see replayStream) and every update added to want[key]; got,
// the counters read back from storage, must then equal want row by row. want
// starts as the initial values and is carried from run to run by the caller,
// so a second run on the same engine is also checked to start from the state
// the first one left.
func checkConserved(t *testing.T, e *Engine, opts RunOptions, sites int, home func(n int64) int, want, got map[schema.Key]uint64) {
	t.Helper()
	var updates uint64
	replayStream(e, opts, sites, home, func(_ int, txn *workload.Transaction) {
		for i := range txn.Actions {
			if txn.Actions[i].Op != workload.Update {
				t.Fatalf("conservation oracle needs an increment-only workload, saw %v", txn.Actions[i].Op)
			}
			want[txn.Actions[i].Key]++
			updates++
		}
	})
	if len(got) != len(want) {
		t.Errorf("storage holds %d counters, want %d", len(got), len(want))
	}
	var rows int
	var lost uint64
	for k, w := range want {
		if d := w - got[k]; d != 0 {
			rows++
			lost += d
		}
	}
	if rows > 0 {
		t.Errorf("counters not conserved: %d of %d rows are off, %d increments unaccounted for after a run of %d",
			rows, len(want), lost, updates)
	}
}

// TestExecutedCountersConserved runs the oracle on the executed path: 100%
// multisite increments on 64 rows, so nearly every update is shipped and the
// executors keep hitting the same rows. Two consecutive runs on one engine pin
// load-once (the second must continue from the first one's values); a
// read-modify-write shipped as a Get and a Put loses about 1,500 of each run's
// 200,000 increments here. -short runs a fifth of the transactions, which is
// how `make race` affords twenty repeats under the race detector. The
// 50%-multisite leg at die level mixes site-local transactions, which never
// leave their executor, with batches to up to seven owners at once.
func TestExecutedCountersConserved(t *testing.T) {
	txns := 20_000
	if testing.Short() {
		txns = 4_000
	}
	for _, leg := range []struct {
		name      string
		level     topology.Level
		multisite int
	}{{"socket", topology.LevelSocket, 100}, {"die", topology.LevelDie, 100}, {"die-50", topology.LevelDie, 50}} {
		t.Run(leg.name, func(t *testing.T) {
			e := executedEngine(t, workload.MultisiteUpdate(64, leg.multisite), leg.level, false)
			// loadBackend's synthesized initial value of a row is its key.
			want := make(map[schema.Key]uint64)
			for k := int64(0); k < 64; k++ {
				want[schema.KeyFromInt(k)] = uint64(k)
			}
			for run := int64(0); run < 2; run++ {
				opts := RunOptions{Transactions: txns, Seed: 5 + run<<32}
				res, err := e.RunExecuted(opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Committed != int64(opts.Transactions) {
					t.Fatalf("run %d committed %d of %d", run, res.Committed, opts.Transactions)
				}
				got := make(map[schema.Key]uint64)
				h := e.HashBackend()
				for s := 0; s < h.Islands(); s++ {
					h.Scan(s, 0, func(k schema.Key, v uint64) bool {
						got[k] += v // a row living on two shards would show as a doubled counter
						return true
					})
				}
				checkConserved(t, e, opts, res.Executors, executedHome(res.Executors), want, got)
			}
		})
	}
}

// TestPricedCountersConserved is the oracle's priced twin: the same workload
// through Run, the counter being the last column that an update without a row
// increments in place (storage.Table.IncrementIn).
func TestPricedCountersConserved(t *testing.T) {
	prof, _ := topology.ProfileByName("chiplet-2s4d")
	e, err := New(Config{
		Design:      SharedNothing,
		IslandLevel: topology.LevelDie,
		Workload:    workload.MultisiteUpdate(64, 100),
		Topology:    prof.Build(),
	})
	if err != nil {
		t.Fatal(err)
	}
	counters := func() map[schema.Key]uint64 {
		m := make(map[schema.Key]uint64)
		e.tables[e.tableIdx["mupd"]].Scan(0, 0, ^schema.Key(0), func(k schema.Key, r schema.Row) bool {
			m[k] = uint64(r[len(r)-1].(int64))
			return true
		})
		return m
	}
	want := counters()
	snap := e.snap
	alive := e.aliveCores()
	home := func(n int64) int { return snap.wiring.siteOf(alive[int(n)%len(alive)].ID) }
	for run := int64(0); run < 2; run++ {
		opts := RunOptions{Transactions: 20_000, Seed: 5 + run<<32}
		res, err := e.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed != int64(opts.Transactions) {
			t.Fatalf("run %d committed %d of %d", run, res.Committed, opts.Transactions)
		}
		checkConserved(t, e, opts, snap.numSites(), home, want, counters())
	}
}

// TestPricedUpdatesConserve is the value oracle of the priced path: an update
// action without a row adds one to its row's last column, in place and
// without wrapping, so per table the sum of that column after a run minus the
// sum after the load is the number of such updates the run applied. Every key
// the two workloads update exists, and with one transaction in flight every
// generated transaction runs all its actions, so that number is counted at
// the generator. A counter that wrapped, or an update that did not land, fails
// it.
func TestPricedUpdatesConserve(t *testing.T) {
	for _, mk := range []func() *workload.Workload{
		func() *workload.Workload { return workload.YCSB(2_000, workload.YCSBA) },
		func() *workload.Workload { return workload.MultisiteUpdate(2_000, 20) },
	} {
		for _, design := range []Design{Centralized, ATraPos, SharedNothing} {
			t.Run(fmt.Sprintf("%s/%v", mk().Name, design), func(t *testing.T) {
				wl := mk()
				e, err := New(Config{Design: design, Workload: wl, Topology: smallTopology()})
				if err != nil {
					t.Fatal(err)
				}
				updates := make(map[string]int64)
				generate := wl.Generate
				wl.Generate = func(ctx *workload.GenContext) *workload.Transaction {
					txn := generate(ctx)
					for _, a := range txn.Actions {
						if a.Op == workload.Update && a.Row == nil {
							updates[a.Table]++
						}
					}
					return txn
				}
				sums := func() map[string]int64 {
					out := make(map[string]int64)
					for _, tbl := range e.tables {
						tbl.Scan(0, 0, ^schema.Key(0), func(_ schema.Key, r schema.Row) bool {
							out[tbl.Name()] += r[len(r)-1].(int64)
							return true
						})
					}
					return out
				}
				loaded := sums()
				opts := RunOptions{Transactions: 20_000, Seed: 42, Workers: 1}
				res, err := e.Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Committed != int64(opts.Transactions) {
					t.Fatalf("committed %d of %d", res.Committed, opts.Transactions)
				}
				after := sums()
				for _, td := range wl.Tables {
					name := td.Schema.Name
					if got := after[name] - loaded[name]; got != updates[name] || updates[name] == 0 {
						t.Errorf("%s: last column grew by %d over the run, %d updates applied", name, got, updates[name])
					}
				}
			})
		}
	}
}

// TestExecutedMultiIslandShips runs die-grained executors on a multisite
// workload and checks that cross-island work really ships, exactly as often as
// the stream implies: one message per (transaction, remote participant), which
// together carry every remote action once — an update is one Increment, not a
// Get and a Put — plus one commit record per remote write participant. The
// carried count is what the one-message-per-operation protocol shipped as
// 8,035 separate messages on this stream: batching loses nothing logical.
func TestExecutedMultiIslandShips(t *testing.T) {
	wl := workload.MultisiteUpdate(4000, 50)
	e := executedEngine(t, wl, topology.LevelDie, false)
	opts := RunOptions{Transactions: 1200, Seed: 3}
	res, err := e.RunExecuted(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 1200 {
		t.Fatalf("committed %d, want 1200", res.Committed)
	}
	if res.Executors != 8 {
		t.Fatalf("chiplet-2s4d die level should run 8 executors, got %d", res.Executors)
	}
	if res.Components[vclock.Communication] == 0 {
		t.Error("50%% multisite at die grain measured zero communication time")
	}
	snap := e.snap
	tp, _ := snap.placement.Table("mupd")
	var wantShips, wantOps int64
	replayStream(e, opts, res.Executors, executedHome(res.Executors), func(home int, txn *workload.Transaction) {
		participants := make(map[int]bool)
		for i := range txn.Actions {
			if shard := snap.wiring.siteOf(tp.CoreFor(txn.Actions[i].Key)); shard != home {
				wantOps++
				participants[shard] = true
			}
		}
		wantShips += int64(len(participants))
		wantOps += int64(len(participants)) // every action is an update: each participant gets a commit record
	})
	if res.Ships != wantShips || res.Serves != wantShips {
		t.Errorf("shipped %d and served %d messages, the stream implies %d", res.Ships, res.Serves, wantShips)
	}
	if res.ShippedOps != wantOps || wantOps != 8035 {
		t.Errorf("messages carried %d operations, the stream implies %d (8035 before batching)", res.ShippedOps, wantOps)
	}
}

// TestExecutedGeneratesAtTimeZero: an executed run generates every
// transaction at virtual time 0, so a time-varying workload measures its t = 0
// mix however fast the host is. The probe's mix is all site-local at t = 0 and
// all multisite after it; a generator that saw the wall clock shipped nearly
// one message per transaction.
func TestExecutedGeneratesAtTimeZero(t *testing.T) {
	wl := workload.MultisiteUpdateDrifting(4000, func(at vclock.Nanos) int {
		if at > 0 {
			return 100
		}
		return 0
	})
	e := executedEngine(t, wl, topology.LevelSocket, false)
	res, err := e.RunExecuted(RunOptions{Transactions: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 2000 || res.Ships != 0 {
		t.Errorf("committed %d and shipped %d messages, want 2000 and 0: the generator saw a clock past t = 0",
			res.Committed, res.Ships)
	}
}

// TestExecutedSkipsUndeclaredTable: an action on a table the workload does
// not declare is skipped, as the priced loop skips it, instead of landing on
// table 0.
func TestExecutedSkipsUndeclaredTable(t *testing.T) {
	const rows = 64
	wl := workload.MultisiteUpdate(rows, 0)
	wl.Generate = func(ctx *workload.GenContext) *workload.Transaction {
		txn := ctx.Txn("UpdateLocal10")
		txn.Add("undeclared", workload.Update, schema.KeyFromInt(ctx.Rng.Int63n(rows)))
		return txn
	}
	e := executedEngine(t, wl, topology.LevelSocket, false)
	res, err := e.RunExecuted(RunOptions{Transactions: 1000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Log.LogicalRecords != 0 {
		t.Errorf("logged %d write records for actions on an undeclared table, want 0", res.Log.LogicalRecords)
	}
	h := e.HashBackend()
	seen := 0
	for s := 0; s < h.Islands(); s++ {
		h.Scan(s, 0, func(k schema.Key, v uint64) bool {
			seen++
			// loadBackend's synthesized initial value of a row is its key.
			if v != uint64(k) {
				t.Errorf("table 0 key %d holds %d, want its untouched initial value", k, v)
			}
			return true
		})
	}
	if seen != rows {
		t.Errorf("table 0 holds %d rows, want %d", seen, rows)
	}
}

// TestExecScratchPadded pins the layout fix for false sharing between
// neighbouring executors' scratch: the struct's last field is a pad of at
// least one cache line, so in the contiguous scratch array no line holds
// fields of two executors.
func TestExecScratchPadded(t *testing.T) {
	typ := reflect.TypeOf(execScratchX{})
	last := typ.Field(typ.NumField() - 1)
	if last.Name != "_" || last.Type.Size() < cacheLineSize {
		t.Errorf("execScratchX ends in field %q of %d bytes, want a pad of >= %d",
			last.Name, last.Type.Size(), cacheLineSize)
	}
}

// TestExecutedOversubscribed is the liveness check for executors that are
// plain goroutines: 8 and 32 of them on one P, half the transactions
// multisite, must still commit everything — an executor blocked on a ship
// yields to the owner it waits for — well inside a generous wall bound.
func TestExecutedOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, level := range []topology.Level{topology.LevelDie, topology.LevelCore} {
		e := executedEngine(t, workload.MultisiteUpdate(4000, 50), level, false)
		var res *ExecutedResult
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			res, err = e.RunExecuted(RunOptions{Transactions: 4000, Seed: 9})
		}()
		select {
		case <-done:
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed != 4000 {
				t.Errorf("%v level: committed %d of 4000", level, res.Committed)
			}
			if res.Ships == 0 {
				t.Errorf("%v level: %d executors shipped nothing", level, res.Executors)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("%v level: 4000 transactions did not finish in 60 s at GOMAXPROCS=1", level)
		}
	}
}

// TestExecutedAllocBudget is the satellite's allocation assertion for the
// executed path: steady state must stay at or under one allocation per
// transaction (the priced designs' budget of exactly zero is asserted by the
// fuzzer and reported by BenchmarkExecute). Measured over a full RunExecuted
// so the budget covers generation, routing, backend ops and group commit.
func TestExecutedAllocBudget(t *testing.T) {
	wl := workload.MustTATP(workload.TATPOptions{Subscribers: 1000})
	e := executedEngine(t, wl, topology.LevelMachine, false)
	const txns = 5000
	// Warm-up run: builds the per-run scratch, grows the generator's buffers
	// and faults in the code paths.
	if _, err := e.RunExecuted(RunOptions{Transactions: txns, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := e.RunExecuted(RunOptions{Transactions: txns, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perTxn := float64(after.Mallocs-before.Mallocs) / float64(txns)
	// The fixed per-run setup (executors, their channels, the scratch) is
	// amortized over the 5000 transactions and included in the budget.
	if perTxn > 1.0 {
		t.Errorf("executed steady state allocates %.3f allocs/txn, budget is 1", perTxn)
	}
}
