package engine

import (
	"fmt"
	"sync"
	"time"

	"atrapos/internal/backend"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/wal"
	"atrapos/internal/workload"
)

// buildHashBackend constructs the executed storage engine from the installed
// island wiring: one shard, one value log and (at run time) one executor
// goroutine per island, laid out exactly as the wiring prescribes.
func (e *Engine) buildHashBackend() error {
	w := e.snap.wiring
	names := make([]string, len(e.wl.Tables))
	for i, td := range e.wl.Tables {
		names[i] = td.Schema.Name
	}
	b, err := backend.NewHash(backend.HashConfig{
		Islands: len(w.sites),
		Tables:  names,
		Homes:   wiringHomes(w),
		Log:     *e.cfg.LogConfig,
	})
	if err != nil {
		return err
	}
	e.hash = b
	return nil
}

// HashBackend returns the executed storage engine, or nil on the priced path.
func (e *Engine) HashBackend() *backend.HashBackend { return e.hash }

// wiringHomes extracts the per-island home sockets of a wiring.
func wiringHomes(w *islandWiring) []topology.SocketID {
	homes := make([]topology.SocketID, len(w.sites))
	for i, s := range w.sites {
		homes[i] = s.Socket
	}
	return homes
}

// loadBackend bulk-loads the empty hash backend from the priced tables'
// current keysets, routed through the snapshot's placement the same way the
// run loop routes actions, so both modes start from the same logical database.
// RunExecuted calls it on first use only — not engine.New, which every priced
// engine would pay for — and from then on executed state carries from run to
// run as the priced tables' does (an adaptive engine, whose planner could
// re-wire the islands under it, has no hash backend). Values are synthesized
// from the key: the executed engine stores opaque fixed-width values, and a
// counter that starts at its key is as good as any.
func (e *Engine) loadBackend(snap *stateSnapshot) error {
	if e.hash == nil {
		return fmt.Errorf("engine: no hash backend configured")
	}
	w := snap.wiring
	for ti, td := range e.wl.Tables {
		tp := snap.tps[ti]
		if tp == nil {
			return fmt.Errorf("engine: placement is missing table %s", td.Schema.Name)
		}
		e.tables[ti].AscendKeys(func(k schema.Key) bool {
			e.hash.Load(w.siteOf(tp.CoreFor(k)), ti, k, uint64(k))
			return true
		})
	}
	e.hash.FinishLoad(0)
	e.hashLoaded = true
	return nil
}

// ExecutedResult summarizes one executed-mode run: real operations on the
// sharded hash engine, timed in wall nanoseconds.
type ExecutedResult struct {
	Workload  string
	Committed int64
	// WallNS is the wall-clock duration of the run, executor launch to last
	// join.
	WallNS int64
	// MeasuredKTPS is Committed / wall seconds / 1000.
	MeasuredKTPS float64
	IslandLevel  string
	Executors    int
	// Ships and Serves count the messages executors shipped to a remote owner
	// and the messages owners served (equal once a run has joined) — one per
	// (transaction, remote participant), so Ships / Committed is the measured
	// ships per transaction. ShippedOps counts what those messages carried:
	// every remote operation, plus one per commit record riding a batch.
	Ships, Serves, ShippedOps int64
	// Components is the measured wall time attributed to the cost model's
	// components, summed over executors: Execution holds local index and
	// value-log op time, Logging the commit/group-commit time (both sampled,
	// see timedEvery), Communication the cross-island ship waits plus serve
	// time, Management the residual (generation, routing, scheduling). Locking
	// is structurally zero: shards are single-owner, the design needs no locks.
	Components [vclock.NumComponents]int64
	// Log is the island value logs' activity for this run.
	Log wal.Stats
}

// execScratchX is the per-executor reusable state of the executed run loop;
// like the priced path's execScratch, everything the steady-state loop needs
// lives here so the loop body allocates nothing. The scratches are one
// array, so the trailing pad puts a full cache line between one executor's
// fields and the next one's: without it executor i's opNs/logNs shared a line
// with executor i+1's generator state, which that executor rewrites on every
// RNG draw (TestExecScratchPadded).
type execScratchX struct {
	gen   txnSource
	opNs  int64
	logNs int64
	_     [cacheLineSize]byte
}

// cacheLineSize is the coherence granule the scratch padding assumes.
const cacheLineSize = 64

// RunExecuted executes the workload on the hash backend with one executor
// goroutine per island and returns measured wall-time results. The first call
// loads the backend from the priced tables; later calls continue from the
// state the previous one left. Every transaction is generated at virtual time
// 0, so an executed run measures the workload's t = 0 mix: a time-varying
// workload does not drift with the host's speed. With that, the stream is the
// one the priced Run generates for a workload whose mix does not vary (same
// seed → same transactions); transaction n is executed by executor
// n % islands, so the assignment is scheduler-independent too. Only wall times
// vary between repeats — committed counts and final keysets do not. There are no locks and
// no aborts, so Committed always equals the transaction count; what holds
// instead of isolation is that every operation runs on its shard's single
// owner, one at a time, and an update is one such operation
// (backend.OpIncrement) — increments are never lost, but a multi-action
// transaction is not isolated from its peers.
func (e *Engine) RunExecuted(opts RunOptions) (*ExecutedResult, error) {
	if e.hash == nil {
		return nil, fmt.Errorf("engine: RunExecuted needs Config.Backend = backend.Hash")
	}
	if opts.Transactions <= 0 {
		return nil, fmt.Errorf("engine: executed run needs a transaction count")
	}
	if f := ignoredByExecuted(opts); f != "" {
		return nil, fmt.Errorf("engine: an executed run reads only Transactions and Seed; %s is not supported (leave it unset)", f)
	}
	snap := e.snap
	if !e.hashLoaded {
		if err := e.loadBackend(snap); err != nil {
			return nil, err
		}
	}
	w := snap.wiring
	islands := e.hash.Islands()
	logStart := e.hash.Stats()

	execs := backend.NewExecutors(e.hash)
	scratch := make([]execScratchX, islands)

	stop := make(chan struct{})
	var wgWork, wgAll sync.WaitGroup
	start := time.Now()
	for i := range execs {
		wgWork.Add(1)
		wgAll.Add(1)
		go func(ex *backend.Executor, sc *execScratchX) {
			defer wgAll.Done()
			e.executedWorker(ex, sc, opts, snap)
			wgWork.Done()
			// Serve slower peers until every executor's work loop is done; no
			// ship can be in flight after that (ships complete synchronously),
			// so closing stop is race-free.
			ex.Serve(stop)
		}(execs[i], &scratch[i])
	}
	wgWork.Wait()
	close(stop)
	wgAll.Wait()
	wall := time.Since(start).Nanoseconds()
	e.hash.Drain()

	res := &ExecutedResult{
		Workload:    e.wl.Name,
		Committed:   int64(opts.Transactions),
		WallNS:      wall,
		IslandLevel: w.level.String(),
		Executors:   islands,
		Log:         e.hash.Stats().Sub(logStart),
	}
	if wall > 0 {
		res.MeasuredKTPS = float64(res.Committed) / (float64(wall) / 1e9) / 1000
	}
	for i := range execs {
		st := execs[i].Stats
		sc := &scratch[i]
		res.Ships += st.Ships
		res.Serves += st.Serves
		res.ShippedOps += st.ShippedOps
		res.Components[vclock.Execution] += sc.opNs
		res.Components[vclock.Logging] += sc.logNs
		res.Components[vclock.Communication] += st.ShipNs + st.ServeNs
		residual := wall - sc.opNs - sc.logNs - st.ShipNs - st.ServeNs
		if residual > 0 {
			res.Components[vclock.Management] += residual
		}
	}
	return res, nil
}

// ignoredByExecuted names the first option RunExecuted would otherwise drop
// silently, or returns "".
func ignoredByExecuted(o RunOptions) string {
	switch {
	case o.Duration != 0:
		return "Duration"
	case o.SampleWindow != 0:
		return "SampleWindow"
	case o.Faults != nil:
		return "Faults"
	}
	return ""
}

// timedEvery is the sampling period of the executed loop's clock reads: an
// executor brackets the local actions and the commit of every timedEvery-th
// of its transactions, starting with its first, with clock reads and scales
// what it measured by timedEvery. Bracketing every action cost 24 clock reads
// per 10-update transaction, each about as long as the hash probe it timed.
// These brackets are the loop's only clock reads: nothing the run executes
// depends on the wall clock.
const timedEvery = 16

// backendOp maps a generated action to the storage operation that executes
// it; an update is one owner-side read-modify-write.
func backendOp(op workload.OpType) backend.Op {
	switch op {
	case workload.Update:
		return backend.OpIncrement
	case workload.Insert:
		return backend.OpPut
	case workload.Delete:
		return backend.OpDelete
	}
	return backend.OpGet
}

// executedWorker is one executor's work loop: it owns transactions n with
// n % islands == executor id, generates them from the same per-index seeds
// the priced loop uses, routes every action through the placement to its
// island, applies the local ones at once and stages the remote ones per
// owner, commits with the value-log group-commit, and then ships each remote
// owner one message: its operations in generation order plus, for a write
// participant, the commit record — the executed analogue of the 2PC decision
// round, riding the same message as the work.
func (e *Engine) executedWorker(ex *backend.Executor, sc *execScratchX, opts RunOptions, snap *stateSnapshot) {
	w, tps, tableIdx := snap.wiring, snap.tps, e.tableIdx
	islands := e.hash.Islands()
	id := ex.ID()
	mine := 0
	for n := int64(1); n <= int64(opts.Transactions); n++ {
		if int(n%int64(islands)) != id {
			continue
		}
		timed := mine%timedEvery == 0
		mine++
		ex.Poll()
		t := sc.gen.generate(e.wl, opts.Seed, n, 0, id, islands)
		txnID := uint64(n)
		for ai := range t.Actions {
			a := &t.Actions[ai]
			// The per-action path makes one map lookup, table name to index,
			// and that index is both the table the backend addresses and the
			// slot of its placement. An action on a table the workload does
			// not declare is skipped, as the priced loop skips it.
			ti, ok := tableIdx[a.Table]
			tp := tps[ti]
			if !ok || tp == nil {
				continue
			}
			shard := w.siteOf(tp.CoreFor(a.Key))
			// Ship time is accounted inside the executor (ShipNs), so only
			// local actions are timed here; Stage applies those at once.
			if timed && shard == id {
				t0 := time.Now()
				ex.Stage(backendOp(a.Op), shard, ti, a.Key, txnID, uint64(a.Key))
				sc.opNs += timedEvery * time.Since(t0).Nanoseconds()
			} else {
				ex.Stage(backendOp(a.Op), shard, ti, a.Key, txnID, uint64(a.Key))
			}
		}
		// Commit: the home island's record first, then the batches.
		if timed {
			t0 := time.Now()
			ex.CommitLocal(txnID)
			sc.logNs += timedEvery * time.Since(t0).Nanoseconds()
		} else {
			ex.CommitLocal(txnID)
		}
		ex.ShipStaged(txnID)
	}
}
