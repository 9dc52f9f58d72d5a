package engine

import (
	"errors"

	"atrapos/internal/core"
	"atrapos/internal/lock"
	"atrapos/internal/numa"
	"atrapos/internal/obs"
	"atrapos/internal/schema"
	"atrapos/internal/storage"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/wal"
	"atrapos/internal/workload"
)

// performAction executes one storage access on behalf of the given executing
// core and returns its cost plus whether the action actually modified the
// table. Duplicate inserts are treated as updates and missing rows as no-ops,
// so replayed or colliding generator keys never wedge an experiment; applied
// is false for those no-ops so the caller can log them faithfully.
func performAction(tbl *storage.Table, a workload.Action, from topology.CoreID) (cost numa.Cost, applied bool, err error) {
	switch a.Op {
	case workload.Read:
		_, cost, err := tbl.Read(from, a.Key)
		if errors.Is(err, storage.ErrNotFound) {
			return cost, false, nil
		}
		return cost, false, err
	case workload.Update:
		fn := incrementLastColumn
		if a.Row != nil {
			row := a.Row
			fn = func(schema.Row) schema.Row { return row }
		}
		cost, err := tbl.Update(from, a.Key, fn)
		if errors.Is(err, storage.ErrNotFound) {
			return cost, false, nil
		}
		return cost, err == nil, err
	case workload.Insert:
		cost, err := tbl.Insert(from, a.Key, a.Row)
		if errors.Is(err, storage.ErrDuplicate) {
			extra, uerr := tbl.Update(from, a.Key, func(schema.Row) schema.Row { return a.Row })
			return cost + extra, uerr == nil, uerr
		}
		return cost, err == nil, err
	case workload.Delete:
		cost, err := tbl.Delete(from, a.Key)
		if errors.Is(err, storage.ErrNotFound) {
			return cost, false, nil
		}
		return cost, err == nil, err
	default:
		return 0, false, nil
	}
}

// incrementLastColumn is the in-place update applied when an update action
// carries no row payload. It is a package-level function rather than a
// closure in performAction (a closure capturing the action escapes into the
// storage layer and costs one heap allocation per update), and the counter
// wraps at 256 so the boxed value stays inside the runtime's static
// small-integer cache — an unbounded counter would allocate on every store
// into the schema.Value interface. No experiment reads the counter; the row
// write itself is what the model charges for.
func incrementLastColumn(r schema.Row) schema.Row {
	if len(r) > 1 {
		if v, ok := r[len(r)-1].(int64); ok {
			r[len(r)-1] = (v + 1) & 0xff
		}
	}
	return r
}

// recordTypeFor maps an executed write action to its log record type. A write
// that found no row to modify logs a NoopWrite: the append is still charged —
// the miss is only discovered inside the storage layer, after the log space is
// reserved — but redo must not re-establish a key the action never touched.
func recordTypeFor(op workload.OpType, applied bool) wal.RecordType {
	if !applied {
		return wal.NoopWrite
	}
	switch op {
	case workload.Insert:
		return wal.Insert
	case workload.Delete:
		return wal.Delete
	default:
		return wal.Update
	}
}

// lockModeFor maps an operation to the row lock mode and its table intention mode.
func lockModeFor(op workload.OpType) (row, table lock.Mode) {
	if op.IsWrite() {
		return lock.X, lock.IX
	}
	return lock.S, lock.IS
}

// effectiveCore redirects work owned by a core on a failed socket to the
// corresponding core of the next alive socket. Static designs keep their
// partitioning plan after a failure, so the redirected work overloads the
// fallback socket — the behaviour Figure 12 shows for the static system.
func (e *Engine) effectiveCore(c topology.CoreID) topology.CoreID {
	top := e.cfg.Topology
	s := top.SocketOf(c)
	if top.Alive(s) {
		return c
	}
	core, err := top.Core(c)
	if err != nil {
		return 0
	}
	for off := 1; off <= top.Sockets(); off++ {
		cand := topology.SocketID((int(s) + off) % top.Sockets())
		if top.Alive(cand) {
			return top.CoresOn(cand)[core.LocalIndex].ID
		}
	}
	return c
}

// lockedPartition remembers a (table, partition/site) whose local lock table
// holds locks on behalf of the running transaction.
type lockedPartition struct {
	table string
	idx   int
	core  topology.CoreID
	sock  topology.SocketID
}

// releaseLocal releases every partition-local lock table the transaction
// touched, exactly once per distinct (table, partition). The release cost is
// charged to the owner recorded by the partition's most recent acquisition:
// if a partition was re-locked from a different core mid-transaction (a
// socket failure redirected ownership), the last recorded owner is the core
// that actually holds the lock table, so the cost lands there consistently
// rather than on whichever entry happened to be recorded first.
func (e *Engine) releaseLocal(snap *stateSnapshot, id lock.TxnID, locked []lockedPartition) {
	for i := range locked {
		last := true
		for j := i + 1; j < len(locked); j++ {
			if locked[j].table == locked[i].table && locked[j].idx == locked[i].idx {
				last = false
				break
			}
		}
		if !last {
			continue
		}
		lp := locked[i]
		if lm, err := snap.runtime.Locks(lp.table, lp.idx); err == nil {
			cost, _ := lm.ReleaseAll(lp.sock, id)
			e.charge(lp.core, vclock.Locking, cost)
		}
	}
}

// executeCentralized runs one transaction under the traditional centralized
// shared-everything design. All costs are charged to the coordinating worker.
func (e *Engine) executeCentralized(worker topology.CoreID, t *workload.Transaction, sc *execScratch) bool {
	s := e.cfg.Topology.SocketOf(worker)
	tx := &sc.txn
	e.charge(worker, vclock.Management, e.txnMgr.BeginInto(tx, worker))

	abort := func() bool {
		cost, _ := e.centralLocks.ReleaseAll(s, lock.TxnID(tx.ID))
		e.charge(worker, vclock.Locking, cost)
		abortCost, _ := e.txnMgr.Abort(tx)
		e.charge(worker, vclock.Management, abortCost)
		return false
	}

	// Table-level intention locks first (hierarchical locking), then row locks.
	for _, a := range t.Actions {
		_, tm := lockModeFor(a.Op)
		sc.upsertTableMode(a.Table, tm)
	}
	for _, tm := range sc.tableModes {
		cost, err := e.centralLocks.Acquire(s, lock.TxnID(tx.ID), lock.TableResource(tm.table), tm.mode)
		e.charge(worker, vclock.Locking, cost)
		e.traceOp(sc, obs.KindLockAcquire, worker, cost, errArg(err))
		if err != nil {
			return abort()
		}
	}

	wrote := false
	for _, a := range t.Actions {
		rowMode, _ := lockModeFor(a.Op)
		cost, err := e.centralLocks.Acquire(s, lock.TxnID(tx.ID), lock.RowResource(a.Table, a.Key), rowMode)
		e.charge(worker, vclock.Locking, cost)
		e.traceOp(sc, obs.KindLockAcquire, worker, cost, errArg(err))
		if err != nil {
			return abort()
		}
		execCost, applied, err := performAction(e.tables[a.Table], a, worker)
		e.charge(worker, vclock.Execution, execCost)
		if err != nil {
			return abort()
		}
		if a.Op.IsWrite() {
			wrote = true
			_, logCost := e.log.Append(s, wal.Record{Txn: uint64(tx.ID), Type: recordTypeFor(a.Op, applied), Table: a.Table, Key: a.Key, Size: 96})
			e.charge(worker, vclock.Logging, logCost)
			e.traceOp(sc, obs.KindWALAppend, worker, logCost, 96)
		}
	}
	if wrote {
		_, logCost := e.log.Append(s, wal.Record{Txn: uint64(tx.ID), Type: wal.Commit, Size: 48})
		e.charge(worker, vclock.Logging, logCost)
		e.traceOp(sc, obs.KindWALAppend, worker, logCost, 48)
		e.charge(worker, vclock.Logging, e.log.Flush(s, e.log.Tail(), e.coreTime(worker)))
	}
	relCost, _ := e.centralLocks.ReleaseAll(s, lock.TxnID(tx.ID))
	e.charge(worker, vclock.Locking, relCost)
	for _, tm := range sc.tableModes {
		e.centralLocks.RetainForSLI(s, lock.TableResource(tm.table), tm.mode)
	}
	commitCost, err := e.txnMgr.Commit(tx)
	e.charge(worker, vclock.Management, commitCost)
	return err == nil
}

// executeSharedNothing runs one transaction under the shared-nothing designs.
// The worker's own instance coordinates; actions owned by other instances are
// shipped over shared-memory channels and, for updates, committed with 2PC.
// Every piece of instance wiring — sites, per-island logs, the 2PC
// coordinator, the transaction manager — comes from the snapshot taken for
// this transaction, so an online island-level change never splits one
// transaction across two machine layouts.
func (e *Engine) executeSharedNothing(worker topology.CoreID, t *workload.Transaction, sc *execScratch) bool {
	snap := sc.snap
	w := snap.wiring
	homeSite := w.siteOf(worker)
	homeSocket := e.cfg.Topology.SocketOf(worker)

	tx := &sc.txn
	e.charge(worker, vclock.Management, w.txnMgr.BeginInto(tx, worker))

	// siteInfo returns the core that executes an action owned by site: work on
	// the coordinator's own instance runs on the coordinating core, work on a
	// remote instance runs on that instance's "peer" core (the island member
	// with the same local index), which is how a real instance spreads
	// incoming remote requests over all of its cores rather than funnelling
	// them through one. Single-core islands (extreme granularity) have exactly
	// one choice.
	workerLocal := 0
	if c, err := e.cfg.Topology.Core(worker); err == nil {
		workerLocal = c.LocalIndex
	}
	siteInfo := func(site int) (topology.CoreID, topology.SocketID) {
		if site < 0 || site >= len(w.sites) {
			site = 0
		}
		if site == homeSite {
			return worker, homeSocket
		}
		if cores := w.siteCores[site]; len(cores) > 1 {
			peer := cores[workerLocal%len(cores)]
			return peer.ID, peer.Socket
		}
		c := w.sites[site]
		return c.ID, c.Socket
	}

	remote := false

	abort := func() bool {
		e.releaseLocal(snap, lock.TxnID(tx.ID), sc.locked)
		abortCost, _ := w.txnMgr.Abort(tx)
		e.charge(worker, vclock.Management, abortCost)
		return false
	}

	wrote := false
	for _, a := range t.Actions {
		tp, ok := snap.placement.Table(a.Table)
		if !ok {
			continue
		}
		site := tp.PartitionFor(a.Key)
		siteCore, siteSock := siteInfo(site)
		sc.addParticipant(site)
		if site != homeSite {
			remote = true
			sc.addRemoteCore(siteCore)
			// Request and response over the shared-memory channel. The
			// core-granular cost makes messages between die islands of one
			// socket cheaper than cross-socket messages.
			msg := e.domain.CoreMessageCost(worker, siteCore) + e.domain.CoreMessageCost(siteCore, worker)
			e.charge(worker, vclock.Communication, msg)
		}
		lm, err := snap.runtime.Locks(a.Table, site)
		if err != nil {
			continue
		}
		rowMode, _ := lockModeFor(a.Op)
		lockCost, lockErr := lm.Acquire(siteSock, lock.TxnID(tx.ID), lock.RowResource(a.Table, a.Key), rowMode)
		e.charge(siteCore, vclock.Locking, lockCost)
		e.traceOp(sc, obs.KindLockAcquire, siteCore, lockCost, errArg(lockErr))
		sc.locked = append(sc.locked, lockedPartition{table: a.Table, idx: site, core: siteCore, sock: siteSock})
		if lockErr != nil {
			return abort()
		}
		execCost, applied, err := performAction(e.tables[a.Table], a, siteCore)
		e.charge(siteCore, vclock.Execution, execCost)
		if err != nil {
			return abort()
		}
		if a.Op.IsWrite() {
			wrote = true
			// Each island appends to its own write-ahead log.
			_, logCost := w.logs.Log(site).Append(siteSock, wal.Record{Txn: uint64(tx.ID), Type: recordTypeFor(a.Op, applied), Table: a.Table, Key: a.Key, Size: 96})
			e.charge(siteCore, vclock.Logging, logCost)
			e.traceOp(sc, obs.KindWALAppend, siteCore, logCost, 96)
		}
	}

	committed2PC := true
	if remote && wrote {
		// Distributed commit with the standard two-phase commit protocol;
		// every participating instance (island) is its own 2PC site.
		if out, err := w.coordinator.Run(tx, worker, homeSite, sc.participants, e.coreTime(worker), false); err == nil {
			committed2PC = out.Committed
			for comp, cost := range out.ByComponent {
				e.charge(worker, vclock.Component(comp), cost)
			}
			// The participant instances' worker threads stay blocked, holding
			// their locks, until the protocol reaches its decision: charge
			// them the protocol latency as lock-holding time. This is the
			// dominant overhead of distributed update transactions the paper
			// analyzes in Figure 4.
			hold := out.ByComponent[vclock.Communication] + out.ByComponent[vclock.Logging]
			for _, c := range sc.remoteCores {
				e.charge(c, vclock.Locking, hold)
			}
			e.trace2PC(sc, worker, out.TotalCost(), out.PrepareCost, len(sc.participants), out.Committed)
		}
	} else if wrote {
		home := w.logs.Log(homeSite)
		_, logCost := home.Append(homeSocket, wal.Record{Txn: uint64(tx.ID), Type: wal.Commit, Size: 48})
		e.charge(worker, vclock.Logging, logCost)
		e.traceOp(sc, obs.KindWALAppend, worker, logCost, 48)
		e.charge(worker, vclock.Logging, home.Flush(homeSocket, home.Tail(), e.coreTime(worker)))
	}

	e.releaseLocal(snap, lock.TxnID(tx.ID), sc.locked)

	if !committed2PC {
		abortCost, _ := w.txnMgr.Abort(tx)
		e.charge(worker, vclock.Management, abortCost)
		return false
	}
	commitCost, err := w.txnMgr.Commit(tx)
	e.charge(worker, vclock.Management, commitCost)
	return err == nil
}

// oversaturationPenalty is the extra execution cost factor per additional
// partition worker sharing a core: a core owning k active partitions executes
// actions (1 + penalty*(k-1)) times slower. It models the oversaturation the
// paper demonstrates with the naïve placement (Fig. 6).
const oversaturationPenalty = 0.8

// executePartitioned runs one transaction under the data-oriented designs
// (PLP, HWAware, ATraPos): actions are routed to partition-owning cores,
// partition-local lock tables replace the centralized lock manager, and
// synchronization points pay the paper's cross-socket rendezvous cost.
func (e *Engine) executePartitioned(worker topology.CoreID, t *workload.Transaction, sc *execScratch) bool {
	coordSocket := e.cfg.Topology.SocketOf(worker)
	snap := sc.snap

	tx := &sc.txn
	e.charge(worker, vclock.Management, e.txnMgr.BeginInto(tx, worker))

	// owners records, per action index, the partition that executed it; the
	// synchronization points below index into it.
	if cap(sc.owners) < len(t.Actions) {
		sc.owners = make([]lockedPartition, len(t.Actions))
	} else {
		sc.owners = sc.owners[:len(t.Actions)]
	}
	for i := range sc.owners {
		sc.owners[i] = lockedPartition{}
	}

	abort := func() bool {
		e.releaseLocal(snap, lock.TxnID(tx.ID), sc.locked)
		abortCost, _ := e.txnMgr.Abort(tx)
		e.charge(worker, vclock.Management, abortCost)
		return false
	}

	wrote := false
	for i, a := range t.Actions {
		tp, ok := snap.placement.Table(a.Table)
		if !ok {
			continue
		}
		idx := tp.PartitionFor(a.Key)
		owner := e.effectiveCore(tp.Cores[idx])
		oSock := e.cfg.Topology.SocketOf(owner)
		pr := lockedPartition{table: a.Table, idx: idx, core: owner, sock: oSock}
		sc.owners[i] = pr

		// Action routing to the owning worker thread: an enqueue on the
		// partition's action queue, i.e. an atomic on a cache line owned by
		// the target island (DORA-style action passing, much cheaper than the
		// inter-process channels of the shared-nothing configurations). The
		// core-granular cost prices same-socket cross-die routing at the
		// cheaper die-hop rate.
		if owner != worker {
			e.charge(worker, vclock.Communication, e.domain.CoreAtomicCost(worker, owner))
		}
		// Partition-local locking (no centralized lock manager).
		lm, err := snap.runtime.Locks(a.Table, idx)
		if err != nil {
			continue
		}
		rowMode, _ := lockModeFor(a.Op)
		lockCost, lockErr := lm.Acquire(oSock, lock.TxnID(tx.ID), lock.RowResource(a.Table, a.Key), rowMode)
		e.charge(pr.core, vclock.Locking, lockCost)
		e.traceOp(sc, obs.KindLockAcquire, pr.core, lockCost, errArg(lockErr))
		sc.locked = append(sc.locked, pr)
		if lockErr != nil {
			return abort()
		}
		// Execute the action on the owning core, inflated by the
		// oversaturation factor if that core hosts several partition workers.
		execCost, applied, err := performAction(e.tables[a.Table], a, owner)
		factor := saturationFactor(oversaturationPenalty, snap.active(tp.Cores[idx]))
		execCost = numa.Cost(float64(execCost) * factor)
		e.charge(pr.core, vclock.Execution, execCost)
		if err != nil {
			return abort()
		}
		if a.Op.IsWrite() {
			wrote = true
			_, logCost := e.log.Append(oSock, wal.Record{Txn: uint64(tx.ID), Type: recordTypeFor(a.Op, applied), Table: a.Table, Key: a.Key, Size: 96})
			e.charge(pr.core, vclock.Logging, logCost)
			e.traceOp(sc, obs.KindWALAppend, pr.core, logCost, 96)
		}
		// Monitoring: thread-local trace arrays (ATraPos only).
		if e.adaptive != nil {
			e.adaptive.recordAction(a.Table, a.Key, vclock.Nanos(execCost))
			e.charge(pr.core, vclock.Management, monitoringCostPerAction)
		}
	}

	// Synchronization points: actions running on different islands must
	// exchange their intermediate results. The cost is the hierarchical
	// rendezvous formula: pairs of participants spanning sockets pay socket
	// hops, pairs spanning dies of one socket pay the cheaper die hops.
	for _, sp := range t.SyncPoints {
		sc.syncCores = sc.syncCores[:0]
		sc.syncRefs = sc.syncRefs[:0]
		for _, ai := range sp.Actions {
			if ai < 0 || ai >= len(sc.owners) || sc.owners[ai].table == "" {
				continue
			}
			sc.syncCores = append(sc.syncCores, sc.owners[ai].core)
			sc.syncRefs = append(sc.syncRefs, core.PartitionRef{Table: sc.owners[ai].table, Partition: sc.owners[ai].idx})
		}
		syncCost := e.domain.SyncPointCostAt(sc.syncCores, sp.Bytes)
		e.charge(worker, vclock.Communication, syncCost)
		e.traceOp(sc, obs.KindSyncPoint, worker, syncCost, int64(sp.Bytes))
		if e.adaptive != nil {
			e.adaptive.recordSync(sc.syncRefs, sp.Bytes)
		}
	}

	if wrote {
		_, logCost := e.log.Append(coordSocket, wal.Record{Txn: uint64(tx.ID), Type: wal.Commit, Size: 48})
		e.charge(worker, vclock.Logging, logCost)
		e.traceOp(sc, obs.KindWALAppend, worker, logCost, 48)
		e.charge(worker, vclock.Logging, e.log.Flush(coordSocket, e.log.Tail(), e.coreTime(worker)))
	}
	e.releaseLocal(snap, lock.TxnID(tx.ID), sc.locked)
	commitCost, err := e.txnMgr.Commit(tx)
	e.charge(worker, vclock.Management, commitCost)
	return err == nil
}

// execute dispatches one transaction to the design-specific path and returns
// whether it committed. The caller owns sc and must have set sc.snap.
func (e *Engine) execute(worker topology.CoreID, t *workload.Transaction, sc *execScratch) bool {
	sc.reset()
	switch e.cfg.Design {
	case Centralized:
		return e.executeCentralized(worker, t, sc)
	case SharedNothingExtreme, SharedNothingCoarse, SharedNothing:
		return e.executeSharedNothing(worker, t, sc)
	default:
		return e.executePartitioned(worker, t, sc)
	}
}
