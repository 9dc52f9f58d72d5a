package main

import (
	"errors"
	"fmt"
	"sync"

	"atrapos/internal/backend"
	"atrapos/internal/core"
	"atrapos/internal/device"
	"atrapos/internal/engine"
	"atrapos/internal/lock"
	"atrapos/internal/numa"
	"atrapos/internal/obs"
	"atrapos/internal/partition"
	"atrapos/internal/schema"
	"atrapos/internal/storage"
	"atrapos/internal/topology"
	"atrapos/internal/txn"
	"atrapos/internal/vclock"
	"atrapos/internal/wal"
	"atrapos/internal/workload"
)

// The replay is the outside-in half of the traced run. It rebuilds each
// layer with the layer's public constructor, in the shape engine.New gives it
// for the workload's configuration, and drives it with that layer's share of
// the workload's own transaction stream, one block at a time, inside spans.
// Every layer is replayed on every workload: a per-call cost is a property of
// (layer, input shape); whether the workload's engine calls the layer at all
// is what the exact *_per_txn counts say.
//
// Layer times are busy times in isolation, optimistic about cache sharing;
// engine.glue_ns_per_txn holds the difference to the end-to-end time.

// phases accumulates the time of two phases that alternate inside a loop
// (acquire/release, append/flush, put/commit), where one clock pair cannot
// cover a phase of the whole block. Every interval contains one clock read,
// which net takes out again.
type phases struct {
	rec   *recorder
	last  int64
	ns    [2]int64
	reads [2]int64
}

func (p *phases) start() { p.last = p.rec.now() }

func (p *phases) mark(i int) {
	t := p.rec.now()
	p.ns[i] += t - p.last
	p.reads[i]++
	p.last = t
}

func (p *phases) net(i int, clockNS float64) int64 {
	return max(p.ns[i]-int64(float64(p.reads[i])*clockNS), 0)
}

// clockReadNS measures what one clock read costs (the median of a few batches).
func clockReadNS(rec *recorder) float64 {
	const reads = 20_000
	var batches []float64
	for b := 0; b < 7; b++ {
		t0 := rec.now()
		for i := 0; i < reads; i++ {
			rec.now()
		}
		batches = append(batches, float64(rec.now()-t0)/reads)
	}
	return median(batches)
}

// walFixture is one replayed log set: one log per site (one in all for the
// designs with a central log), its own device map, and the virtual clock the
// flushes are issued at.
type walFixture struct {
	logs []*wal.CentralLog
	now  vclock.Nanos
}

// replay holds the layer instances and the stream they are driven with.
type replay struct {
	rec     *recorder
	clockNS float64
	cfg     engine.Config
	top     *topology.Topology
	domain  *numa.Domain
	st      *stream
	tables  []*storage.Table
	maxKeys map[string]schema.Key

	// block state
	block   int // span ID of the current block
	trace   string
	firstID uint64 // transaction ID of the block's first transaction

	central *lock.CentralManager
	local   [][]*lock.LocalManager // [table][partition]

	walOwn, walTwin *walFixture
	txnMgr          *txn.Manager
	coordinator     *txn.Coordinator
	coordNow        vclock.Nanos

	monitor   *core.Monitor
	planner   *core.Planner
	executor  *core.Executor
	runtime   *partition.Runtime
	placement *partition.Placement

	hash  *backend.HashBackend
	execs []*backend.Executor
	ring  *obs.Ring
}

// shipsPerBlock is the length of the two-executor ping-pong behind
// backend.ship_ns: a ship takes tens to hundreds of microseconds, so this many
// are a steady sample without dominating the block.
const shipsPerBlock = 64

func newReplay(rec *recorder, cfg engine.Config, executed bool, e *engine.Engine, seed int64, vnsTxn float64) (*replay, error) {
	r := &replay{
		rec: rec, clockNS: clockReadNS(rec), cfg: cfg,
		top: cfg.Topology, domain: e.Domain(), placement: e.Placement(),
		maxKeys: make(map[string]schema.Key),
	}
	r.st = newStream(cfg, executed, r.placement, seed, vnsTxn)
	for _, td := range cfg.Workload.Tables {
		tbl, err := e.Store().Table(td.Schema.Name)
		if err != nil {
			return nil, err
		}
		r.tables = append(r.tables, tbl)
		r.maxKeys[td.Schema.Name] = schema.KeyFromInt(td.MaxKey)
	}

	// lock: the centralized design has one 256-bucket manager with SLI, every
	// other design partition-local tables homed by partition.NewRuntime.
	r.runtime = partition.NewRuntime(r.domain, r.placement)
	if cfg.Design == engine.Centralized {
		r.central = lock.NewCentralManager(r.domain, 256, !cfg.DisableSLI)
	} else {
		for _, td := range cfg.Workload.Tables {
			name := td.Schema.Name
			ms := make([]*lock.LocalManager, r.runtime.NumPartitions(name))
			for i := range ms {
				lm, err := r.runtime.Locks(name, i)
				if err != nil {
					return nil, err
				}
				ms[i] = lm
			}
			r.local = append(r.local, ms)
		}
	}

	// wal: the workload's own log configuration and its twin with the
	// coalescer flipped (64 <-> 0), fed the same calls. Keep = 0 retains every
	// record, which the recovery span replays.
	logCfg := wal.DefaultConfig()
	if cfg.LogConfig != nil {
		logCfg = *cfg.LogConfig
	}
	logCfg.Keep = 0
	twinCfg := logCfg
	if twinCfg.CoalesceRecords > 0 {
		twinCfg.CoalesceRecords = 0
	} else {
		twinCfg.CoalesceRecords = 64
	}
	var err error
	if r.walOwn, err = r.newWAL(logCfg); err != nil {
		return nil, err
	}
	if r.walTwin, err = r.newWAL(twinCfg); err != nil {
		return nil, err
	}

	// txn: central list and state lock for the designs with centralized system
	// state, socket-striped otherwise; 2PC between the workload's islands
	// (shared-nothing) or between the sockets (everything else).
	if cfg.Design == engine.Centralized || cfg.Design == engine.PLP ||
		(cfg.Design.IsSharedNothing() && cfg.IslandLevel == topology.LevelMachine) {
		r.txnMgr = txn.NewManager(r.domain, txn.NewCentralList(r.domain), numa.NewCentralRWLock(r.domain))
	} else {
		r.txnMgr = txn.NewManager(r.domain, txn.NewPartitionedList(r.domain), numa.NewPartitionedRWLock(r.domain))
	}
	level := topology.LevelSocket
	if cfg.Design.IsSharedNothing() {
		level = cfg.IslandLevel
	}
	homes, homeCores, devs, err := r.islandHomes(level)
	if err != nil {
		return nil, err
	}
	r.coordinator = txn.NewCoordinatorAt(r.domain, wal.NewPartitionedLogAtDevices(r.domain, homes, logCfg, devs), homeCores)

	// core and partition: the adaptive pipeline over the engine's tables.
	r.monitor = core.NewMonitor(0)
	r.monitor.RegisterPlacement(r.placement, r.maxKeys)
	r.planner = core.NewPlanner(core.CostModel{Domain: r.domain}, r.monitor.SubPartitions())
	r.planner.PreserveIdle = true
	r.executor = core.NewExecutor(core.DefaultExecutorConfig(), r.domain, e.Store())

	// backend: the executed layout (two socket-grained islands) over the
	// workload's tables, loaded from the priced tables like engine.RunExecuted
	// loads it.
	names := make([]string, len(cfg.Workload.Tables))
	for i, td := range cfg.Workload.Tables {
		names[i] = td.Schema.Name
	}
	sockHomes, _, _, err := r.islandHomes(topology.LevelSocket)
	if err != nil {
		return nil, err
	}
	valueLog := wal.DefaultConfig()
	if cfg.LogConfig != nil {
		valueLog = *cfg.LogConfig
		valueLog.Device = nil
	}
	r.hash, err = backend.NewHash(backend.HashConfig{
		Islands: len(sockHomes), Tables: names, Homes: sockHomes, Log: valueLog, Domain: r.domain,
	})
	if err != nil {
		return nil, err
	}
	r.execs = backend.NewExecutors(r.hash)
	r.loadBackend()

	r.ring = obs.NewRing(1 << 17)
	return r, nil
}

// islandHomes returns, per island at level, its home socket, home core and —
// when the workload configures a device layout — the log device of its home
// die, from a device map of the caller's own.
func (r *replay) islandHomes(level topology.Level) ([]topology.SocketID, []topology.CoreID, []*device.Device, error) {
	var devMap *device.Map
	if r.cfg.DeviceLayout != "" {
		var err error
		if devMap, err = device.BuildLayout(r.cfg.DeviceLayout, r.top); err != nil {
			return nil, nil, nil, err
		}
	}
	var homes []topology.SocketID
	var cores []topology.CoreID
	var devs []*device.Device
	for _, isl := range r.top.AliveIslandsAt(level) {
		homes = append(homes, isl.Cores[0].Socket)
		cores = append(cores, isl.Cores[0].ID)
		if devMap != nil {
			devs = append(devs, devMap.DeviceFor(r.top.DieOf(isl.Cores[0].ID)))
		}
	}
	return homes, cores, devs, nil
}

// newWAL builds one log set in the shape engine.New wires for the design.
func (r *replay) newWAL(cfg wal.Config) (*walFixture, error) {
	if !r.cfg.Design.IsSharedNothing() {
		if r.cfg.DeviceLayout != "" {
			devMap, err := device.BuildLayout(r.cfg.DeviceLayout, r.top)
			if err != nil {
				return nil, err
			}
			cfg.Device = devMap.DeviceFor(r.top.FirstDieOn(0))
		}
		return &walFixture{logs: []*wal.CentralLog{wal.NewCentralLog(r.domain, 0, cfg)}}, nil
	}
	homes, _, devs, err := r.islandHomes(r.cfg.IslandLevel)
	if err != nil {
		return nil, err
	}
	pl := wal.NewPartitionedLogAtDevices(r.domain, homes, cfg, devs)
	f := &walFixture{}
	for i := 0; i < pl.NumLogs(); i++ {
		f.logs = append(f.logs, pl.Log(i))
	}
	return f, nil
}

// txnID is the transaction ID of the i-th transaction of the current block;
// every layer uses the same ID for the same transaction.
func (r *replay) txnID(i int) uint64 { return r.firstID + uint64(i) }

// beginBlock generates block b of the stream: the Generate calls alone inside
// a workload.generate span (unless the block was timed before), then once
// more, untimed, to flatten and route them — which is the block span's self
// time, together with the loop overheads.
func (r *replay) beginBlock(workloadName string, b, perBlock int, timeGenerate bool) {
	r.trace = fmt.Sprintf("%s/block-%d", workloadName, b)
	first := b*perBlock + 1
	r.firstID = uint64(first)
	r.block = r.rec.begin("block", 0, r.trace)
	if timeGenerate {
		id := r.rec.begin("workload.generate", r.block, r.trace)
		r.st.generateOnly(first, perBlock)
		r.rec.end(id, int64(perBlock))
	}
	r.st.fill(first, perBlock)
}

func (r *replay) endBlock() { r.rec.end(r.block, int64(len(r.st.txns))) }

// layerSpan runs fn inside a span of the current block; fn returns the number
// of calls it made.
func (r *replay) layerSpan(name string, fn func() int64) {
	id := r.rec.begin(name, r.block, r.trace)
	calls := fn()
	r.rec.end(id, calls)
}

// phaseSpan runs fn inside a span whose two alternating phases become child
// spans laid out from the parent's start with their accumulated durations.
func (r *replay) phaseSpan(name, phase0, phase1 string, fn func(ph *phases) (calls0, calls1 int64)) {
	id := r.rec.begin(name, r.block, r.trace)
	ph := phases{rec: r.rec}
	c0, c1 := fn(&ph)
	r.rec.end(id, c0+c1)
	at := r.rec.spans[id-1].StartNS
	at = r.rec.add(phase0, id, r.trace, at, ph.net(0, r.clockNS), c0)
	r.rec.add(phase1, id, r.trace, at, ph.net(1, r.clockNS), c1)
}

// replayLock: per transaction every Acquire the design makes (one intention
// lock per table first when centralized, then one row lock per action), then
// the release of everything the transaction holds.
func (r *replay) replayLock() {
	r.phaseSpan("lock", "lock.acquire", "lock.release_all", func(ph *phases) (acquires, releases int64) {
		for i := range r.st.txns {
			t := &r.st.txns[i]
			id := lock.TxnID(r.txnID(i))
			acts := r.st.acts[t.a0:t.a1]
			ph.start()
			if r.central != nil {
				for j := range acts {
					if a := &acts[j]; a.firstOfTable {
						_, _ = r.central.Acquire(a.osock, id, lock.TableResource(a.Table), tableMode(a))
						acquires++
					}
				}
			}
			for j := range acts {
				a := &acts[j]
				mode := lock.S
				if a.Op.IsWrite() {
					mode = lock.X
				}
				// One transaction holds locks at a time, so nothing conflicts.
				if r.central != nil {
					_, _ = r.central.Acquire(a.osock, id, lock.RowResource(a.Table, a.Key), mode)
				} else {
					_, _ = r.local[a.tbl][a.part].Acquire(a.osock, id, lock.RowResource(a.Table, a.Key), mode)
				}
				acquires++
			}
			ph.mark(0)
			if r.central != nil {
				r.central.ReleaseAll(t.sock, id)
				for j := range acts {
					if a := &acts[j]; a.firstOfTable {
						r.central.RetainForSLI(a.osock, lock.TableResource(a.Table), tableMode(a))
					}
				}
				releases++
			} else {
				for j := range acts {
					a := &acts[j]
					if !samePartitionBefore(acts, j) {
						r.local[a.tbl][a.part].ReleaseAll(a.osock, id)
						releases++
					}
				}
			}
			ph.mark(1)
		}
		return acquires, releases
	})
}

func tableMode(a *act) lock.Mode {
	if a.tableWrites {
		return lock.IX
	}
	return lock.IS
}

// samePartitionBefore reports whether an earlier action of the transaction
// already touched action j's partition (its lock table is released once).
func samePartitionBefore(acts []act, j int) bool {
	for k := 0; k < j; k++ {
		if acts[k].tbl == acts[j].tbl && acts[k].part == acts[j].part {
			return true
		}
	}
	return false
}

// incrementLastColumn is the in-place update the engine applies when an
// update carries no row (engine.incrementLastColumn, kept private there).
func incrementLastColumn(row schema.Row) schema.Row {
	if len(row) > 1 {
		if v, ok := row[len(row)-1].(int64); ok {
			row[len(row)-1] = (v + 1) & 0xff
		}
	}
	return row
}

// replayStorage: the stream's reads, then its writes, each in one span. A
// block without reads (the write-only workloads) reads the keys it writes, so
// storage.read_ns still says what a point lookup costs on this key
// distribution; that span is then not part of the engine's path.
func (r *replay) replayStorage() (readsInPath bool) {
	reads := 0
	for i := range r.st.acts {
		if r.st.acts[i].Op == workload.Read {
			reads++
		}
	}
	readsInPath = reads > 0
	r.layerSpan("storage.read", func() (calls int64) {
		for i := range r.st.acts {
			a := &r.st.acts[i]
			if a.Op == workload.Read || !readsInPath {
				_, _, _ = r.tables[a.tbl].Read(a.owner, a.Key) // a miss is a measured lookup too
				calls++
			}
		}
		return calls
	})
	r.layerSpan("storage.write", func() (calls int64) {
		for i := range r.st.acts {
			a := &r.st.acts[i]
			tbl := r.tables[a.tbl]
			switch a.Op {
			case workload.Update:
				fn := incrementLastColumn
				if a.Row != nil {
					row := a.Row
					fn = func(schema.Row) schema.Row { return row }
				}
				_, _ = tbl.Update(a.owner, a.Key, fn) // a missing row is a no-op, as in the engine
			case workload.Insert:
				if _, err := tbl.Insert(a.owner, a.Key, a.Row); errors.Is(err, storage.ErrDuplicate) {
					row := a.Row
					_, _ = tbl.Update(a.owner, a.Key, func(schema.Row) schema.Row { return row })
				}
			case workload.Delete:
				_, _ = tbl.Delete(a.owner, a.Key)
			default:
				continue
			}
			calls++
		}
		return calls
	})
	return readsInPath
}

func recordType(op workload.OpType) wal.RecordType {
	switch op {
	case workload.Insert:
		return wal.Insert
	case workload.Delete:
		return wal.Delete
	default:
		return wal.Update
	}
}

// replayWAL: per single-site writer one Append per write and one for the
// commit record, then the group-commit Flush, on a virtual clock advanced by
// the returned costs. Multisite writers are left to the 2PC replay, whose
// coordinator writes their prepare and decision records.
func (r *replay) replayWAL(f *walFixture, name string) {
	r.phaseSpan(name, name+".append", name+".flush", func(ph *phases) (appends, flushes int64) {
		site := func(idx int32) *wal.CentralLog {
			if len(f.logs) == 1 {
				return f.logs[0]
			}
			return f.logs[idx]
		}
		for i := range r.st.txns {
			t := &r.st.txns[i]
			if t.writes == 0 || (r.st.realMultisite && t.twoPC) {
				continue
			}
			id := r.txnID(i)
			ph.start()
			for j := t.a0; j < t.a1; j++ {
				a := &r.st.acts[j]
				if !a.Op.IsWrite() {
					continue
				}
				_, c := site(a.part).Append(a.osock, wal.Record{Txn: id, Type: recordType(a.Op), Table: a.Table, Key: a.Key, Size: 96})
				f.now += vclock.Nanos(c)
				appends++
			}
			home := site(t.home)
			_, c := home.Append(t.sock, wal.Record{Txn: id, Type: wal.Commit, Size: 48})
			f.now += vclock.Nanos(c)
			appends++
			ph.mark(0)
			f.now += vclock.Nanos(home.Flush(t.sock, home.Tail(), f.now))
			flushes++
			ph.mark(1)
		}
		return appends, flushes
	})
}

// replayTxn: begin and commit of every transaction, then the 2PC round of
// the transactions the stream marks for it.
func (r *replay) replayTxn() {
	r.layerSpan("txn.begin_commit", func() int64 {
		var tx txn.Txn
		for i := range r.st.txns {
			r.txnMgr.BeginInto(&tx, r.st.txns[i].coord)
			_, _ = r.txnMgr.Commit(&tx) // an active transaction always commits
		}
		return int64(len(r.st.txns))
	})
	r.layerSpan("txn.twopc", func() (calls int64) {
		for i := range r.st.txns {
			t := &r.st.txns[i]
			if !t.twoPC {
				continue
			}
			tx := txn.Txn{ID: txn.ID(r.txnID(i)), State: txn.Active, Core: t.coord, Socket: t.sock}
			out, err := r.coordinator.Run(&tx, t.coord, r.st.parts[t.p0], r.st.parts[t.p0:t.p1], r.coordNow, false)
			if err == nil {
				r.coordNow += vclock.Nanos(out.TotalCost())
			}
			calls++
		}
		return calls
	})
}

// replayNUMA: the two cost formulas the engines call per remote action and
// per synchronization point, on the cores this block's transactions touch.
func (r *replay) replayNUMA() {
	var sink numa.Cost
	r.layerSpan("numa.message_cost", func() int64 {
		for i := range r.st.txns {
			t := &r.st.txns[i]
			for j := t.a0; j < t.a1; j++ {
				sink += r.domain.CoreMessageCost(t.coord, r.st.acts[j].owner)
			}
		}
		return int64(len(r.st.acts))
	})
	r.layerSpan("numa.sync_point", func() int64 {
		for i := range r.st.syncs {
			s := &r.st.syncs[i]
			sink += r.domain.SyncPointCostAt(r.st.syncCores[s.c0:s.c1], s.bytes)
		}
		return int64(len(r.st.syncs))
	})
	costSink = sink
}

// costSink keeps the compiler from discarding the pure cost-formula calls.
var costSink numa.Cost

// replayOBS: one span record per action into a pre-sized ring.
func (r *replay) replayOBS() {
	r.ring.Reset()
	r.layerSpan("obs.record", func() int64 {
		for i := range r.st.acts {
			a := &r.st.acts[i]
			r.ring.Record(obs.Span{Start: vclock.Nanos(i), Dur: 100, Kind: obs.KindLockAcquire,
				Core: int32(a.owner), Site: a.part, Arg: int64(a.Key)})
		}
		return int64(len(r.st.acts))
	})
}

// loadBackend bulk-loads the hash backend from the priced tables' key sets,
// one span per table (backend.load_ns_per_row).
func (r *replay) loadBackend() {
	for ti, tbl := range r.tables {
		name := tbl.Name()
		tp := r.st.exec.Tables[name]
		// Collect first: the scan holds the table's latches and is not what
		// is being timed.
		var keys []schema.Key
		tbl.Scan(0, 0, ^schema.Key(0), func(k schema.Key, _ schema.Row) bool {
			keys = append(keys, k)
			return true
		})
		id := r.rec.begin("backend.load", 0, r.cfg.Workload.Name+"/load-"+name)
		for _, k := range keys {
			r.hash.Load(tp.PartitionFor(k), ti, k, uint64(k))
		}
		r.rec.end(id, int64(len(keys)))
	}
	r.hash.FinishLoad(0)
}

// replayBackend: local index and value-log calls in the executed layout — a
// Get per action, then per transaction its writes and its commit record — and
// a two-executor ping-pong for what one shipped operation costs. Like the
// storage replay, a block without reads looks up the keys it writes.
func (r *replay) replayBackend(readsInPath bool) {
	r.layerSpan("backend.get", func() (calls int64) {
		for i := range r.st.acts {
			a := &r.st.acts[i]
			if a.Op == workload.Read || !readsInPath {
				r.hash.Get(int(a.shard), int(a.tbl), a.Key)
				calls++
			}
		}
		return calls
	})
	r.phaseSpan("backend.write", "backend.put", "backend.commit", func(ph *phases) (puts, commits int64) {
		for i := range r.st.txns {
			t := &r.st.txns[i]
			id := r.txnID(i)
			island := int(id % uint64(r.hash.Islands())) // engine.RunExecuted: transaction n runs on executor n % islands
			ph.start()
			for j := t.a0; j < t.a1; j++ {
				a := &r.st.acts[j]
				switch a.Op {
				case workload.Update:
					v, _ := r.hash.Get(int(a.shard), int(a.tbl), a.Key)
					r.hash.Put(int(a.shard), int(a.tbl), a.Key, id, v+1)
				case workload.Insert:
					r.hash.Put(int(a.shard), int(a.tbl), a.Key, id, uint64(a.Key))
				case workload.Delete:
					r.hash.Delete(int(a.shard), int(a.tbl), a.Key, id)
				default:
					continue
				}
				puts++
			}
			ph.mark(0)
			r.hash.Commit(island, id, vclock.Nanos(r.rec.now()))
			commits++
			ph.mark(1)
		}
		return puts, commits
	})
	r.replayShips()
}

// replayShips pins two executors: one serves, the other ships it Gets and
// waits for each reply — the round trip behind every remote operation of an
// executed run, to an owner that is idle. (A server that polls instead of
// blocking, like an owner busy with its own transactions, was tried: on two
// virtual processors it makes the round trip slower, 120-140 us against 75,
// because the woken client then waits for a processor.)
func (r *replay) replayShips() {
	if len(r.execs) < 2 || len(r.st.acts) == 0 {
		return
	}
	// A key the serving executor owns.
	var remote *act
	for i := range r.st.acts {
		if r.hash.Owner(int(r.st.acts[i].shard)) == 1 {
			remote = &r.st.acts[i]
			break
		}
	}
	if remote == nil {
		return
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.execs[1].Pin(func() { r.execs[1].Serve(stop) })
	}()
	r.execs[0].Pin(func() {
		for i := 0; i < 8; i++ { // the server is up before the clock starts
			r.execs[0].Get(int(remote.shard), int(remote.tbl), remote.Key)
		}
		r.layerSpan("backend.ship", func() int64 {
			for i := 0; i < shipsPerBlock; i++ {
				r.execs[0].Get(int(remote.shard), int(remote.tbl), remote.Key)
			}
			return shipsPerBlock
		})
	})
	close(stop)
	wg.Wait()
}

// planEvery is how many blocks of monitor records one run of the adaptive
// pipeline sees. A single block (2,000 transactions) is so noisy a sample that
// the planner finds a "5% better" placement for nearly every one and moves
// hundreds of thousands of rows each time; four blocks are about what the
// engine's planner sees per interval at the benchmark's settings.
const planEvery = 4

// replayCore: feed the monitor the block's actions and, every planEvery-th
// block, run the adaptive pipeline once — seal, plan, diff, apply, build and
// execute the plan — each step in its own span, on the engine's own tables.
func (r *replay) replayCore(b int, windowNS vclock.Nanos) {
	r.layerSpan("core.monitor_record", func() int64 {
		for i := range r.st.txns {
			t := &r.st.txns[i]
			for j := t.a0; j < t.a1; j++ {
				a := &r.st.acts[j]
				r.monitor.RecordAction(a.Table, a.Key, 1000)
			}
			r.monitor.RecordTxn(int(t.a1-t.a0), int(t.writes), 0, t.p1-t.p0 > 1, 0)
		}
		return int64(len(r.st.acts))
	})
	if (b+1)%planEvery != 0 {
		return
	}
	r.monitor.AdvanceWindow(planEvery * windowNS)
	var stats *core.Stats
	r.layerSpan("core.seal", func() int64 { stats = r.monitor.Seal(); return 1 })
	if stats.TotalCost() == 0 {
		return
	}
	// Plan, then the engine's gate: a proposal is installed only when the cost
	// model predicts at least 5% less balance + synchronization cost
	// (engine.adaptiveState.improves). A rejected or invalid proposal leaves
	// the placement as it is; the remaining steps then run on "no change", so
	// every step is measured on every block.
	proposed := r.placement
	r.layerSpan("core.plan", func() int64 {
		p := r.planner.Plan(r.placement, stats, r.maxKeys)
		if p.Validate() == nil && p.ValidateAlive(r.top) == nil && r.improves(p, stats) {
			proposed = p
		}
		return 1
	})
	var diff *partition.PlanDiff
	r.layerSpan("partition.diff", func() int64 { diff = partition.Diff(r.placement, proposed); return 1 })
	var rt *partition.Runtime
	r.layerSpan("partition.apply_diff", func() int64 { rt, _ = r.runtime.ApplyDiff(proposed, diff); return 1 })
	if rt.Validate(proposed) != nil {
		return
	}
	var err error
	r.layerSpan("core.execute_plan", func() int64 {
		_, err = r.executor.Execute(core.BuildPlan(r.placement, proposed, r.top))
		return 1
	})
	if err != nil {
		return
	}
	for name, td := range diff.Tables {
		if td.Kind != partition.TableUnchanged {
			r.monitor.Register(name, proposed.Tables[name].Bounds, r.maxKeys[name])
		}
	}
	r.placement, r.runtime = proposed, rt
}

func (r *replay) improves(proposed *partition.Placement, stats *core.Stats) bool {
	model := r.planner.Model
	weight := float64(r.domain.Model.ByteTransferPerHop)
	cur := model.ResourceUtilization(r.placement, stats) + weight*model.TransactionSync(r.placement, stats)
	next := model.ResourceUtilization(proposed, stats) + weight*model.TransactionSync(proposed, stats)
	return cur > 0 && next < 0.95*cur
}

// replayRepartition splits the fullest partition of the workload's first
// table in the middle and merges it back: what moving one row between
// sub-trees costs, whatever the planner decides (storage.repartition_ns_per_row).
func (r *replay) replayRepartition() {
	tbl := r.tables[0]
	sizes, bounds := tbl.PartitionSizes(), tbl.Bounds()
	big := 0
	for i, n := range sizes {
		if n > sizes[big] {
			big = i
		}
	}
	hi := r.maxKeys[tbl.Name()]
	if big+1 < len(bounds) {
		hi = bounds[big+1]
	}
	at := bounds[big] + (hi-bounds[big])/2
	if at <= bounds[big] {
		return
	}
	r.layerSpan("storage.repartition", func() int64 {
		idx, moved, err := tbl.Split(at)
		if err != nil {
			return 0
		}
		merged, err := tbl.Merge(idx - 1)
		if err != nil {
			return int64(moved)
		}
		return int64(moved + merged)
	})
}

// keySet is the RowStore the recovery span redoes into: recovery
// re-establishes key presence, so a set is the whole state.
type keySet map[schema.Key]struct{}

func (s keySet) ApplyInsert(k schema.Key, _ schema.Row) { s[k] = struct{}{} }
func (s keySet) ApplyDelete(k schema.Key)               { delete(s, k) }

// replayRecovery replays everything the own-configuration logs retained
// through wal.Recover (wal.recover_ns_per_record).
func (r *replay) replayRecovery() error {
	var records []wal.Record
	var durable wal.LSN
	for _, l := range r.walOwn.logs {
		l.Drain(r.walOwn.now)
		records = append(records, l.Records()...)
		durable = max(durable, l.Durable())
	}
	stores := make(map[string]wal.RowStore, len(r.tables))
	for _, tbl := range r.tables {
		stores[tbl.Name()] = keySet{}
	}
	id := r.rec.begin("wal.recover", 0, r.cfg.Workload.Name+"/recover")
	_, err := wal.Recover(records, durable, false, stores)
	r.rec.end(id, int64(len(records)))
	return err
}
