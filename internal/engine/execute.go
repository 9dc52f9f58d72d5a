package engine

import (
	"errors"

	"atrapos/internal/core"
	"atrapos/internal/lock"
	"atrapos/internal/numa"
	"atrapos/internal/obs"
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
// is false for those no-ops so the caller can log them faithfully. An action's
// row is encoded into *enc, the caller's buffer reused action after action:
// storage copies the row it stores and keeps no row the caller holds.
func performAction(tbl *storage.Table, p int, a workload.Action, from topology.CoreID, enc *[]byte) (cost numa.Cost, applied bool, err error) {
	switch a.Op {
	case workload.Read:
		_, cost, err := tbl.ReadIn(p, from, a.Key)
		if errors.Is(err, storage.ErrNotFound) {
			return cost, false, nil
		}
		return cost, false, err
	case workload.Update:
		var cost numa.Cost
		var err error
		if a.Row == nil {
			cost, err = tbl.IncrementIn(p, from, a.Key)
		} else {
			row, eerr := tbl.Layout().AppendEncode((*enc)[:0], a.Row)
			*enc = row
			if eerr != nil {
				return 0, false, eerr
			}
			cost, err = tbl.ReplaceIn(p, from, a.Key, row)
		}
		if errors.Is(err, storage.ErrNotFound) {
			return cost, false, nil
		}
		return cost, err == nil, err
	case workload.Insert:
		row, err := tbl.Layout().AppendEncode((*enc)[:0], a.Row)
		*enc = row
		if err != nil {
			return 0, false, err
		}
		cost, err := tbl.InsertIn(p, from, a.Key, row)
		if errors.Is(err, storage.ErrDuplicate) {
			extra, uerr := tbl.ReplaceIn(p, from, a.Key, row)
			return cost + extra, uerr == nil, uerr
		}
		return cost, err == nil, err
	case workload.Delete:
		cost, err := tbl.DeleteIn(p, from, a.Key)
		if errors.Is(err, storage.ErrNotFound) {
			return cost, false, nil
		}
		return cost, err == nil, err
	default:
		return 0, false, nil
	}
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

// lockedPartition remembers where an action executed: its (table,
// partition/site), the local lock table that holds the action's lock (nil
// under the central lock manager), and the executing core and socket.
type lockedPartition struct {
	table string
	idx   int
	lm    *lock.LocalManager
	core  topology.CoreID
	sock  topology.SocketID
}

// releaseLocal releases every partition-local lock table the transaction
// touched, walking the recorded owners last to first; entries that hold no
// lock table are skipped. The release cost is thereby charged to the owner
// recorded by the partition's most recent acquisition: if a partition was
// re-locked from a different core mid-transaction (a socket failure
// redirected ownership), the last recorded owner is the core that actually
// holds the lock table. An earlier entry of the same partition finds nothing
// left to release, and a release of nothing costs nothing.
func (e *Engine) releaseLocal(id lock.TxnID, locked []lockedPartition) {
	for i := len(locked) - 1; i >= 0; i-- {
		if lp := locked[i]; lp.lm != nil {
			cost, _ := lp.lm.ReleaseAll(lp.sock, id)
			e.charge(lp.core, vclock.Locking, cost)
		}
	}
}

// resolvedAction is what dispatch resolved of one action: its table's dense
// index (-1 for a table the workload does not declare, which every design
// skips) and the partition owning its key.
type resolvedAction struct {
	table, part int
}

// dispatch resolves every action of t once, into sc.acts: the table's dense
// index, which is the one table-name lookup an action makes, and the
// partition, from the snapshot's placement for the routed designs and from the
// table's tree for the coordinator-routed one. No later layer searches again.
// It returns the core that executes t: coord, or under owner routing the owner
// of the dominant action's partition, as DORA dispatches a transaction so the
// bulk of its actions execute locally. The caller must have set sc.snap.
func (e *Engine) dispatch(coord topology.CoreID, t *workload.Transaction, sc *execScratch) topology.CoreID {
	sc.acts = sc.acts[:0]
	for i := range t.Actions {
		a := &t.Actions[i]
		ra := resolvedAction{table: -1}
		if ti, ok := e.tableIdx[a.Table]; ok {
			if e.row.route == routeCoordinator {
				ra = resolvedAction{ti, e.tables[ti].PartitionFor(a.Key)}
			} else if tp := sc.snap.tps[ti]; tp != nil {
				ra = resolvedAction{ti, tp.PartitionFor(a.Key)}
			}
		}
		sc.acts = append(sc.acts, ra)
	}
	if e.row.route == routeOwner && len(sc.acts) > 0 {
		if ra := sc.acts[dominantAction(sc.acts)]; ra.table >= 0 {
			coord = e.effectiveCore(sc.snap.tps[ra.table].Cores[ra.part])
		}
	}
	return coord
}

// oversaturationPenalty is the extra execution cost factor per additional
// partition worker sharing a core: a core owning k active partitions executes
// actions (1 + penalty*(k-1)) times slower. It models the oversaturation the
// paper demonstrates with the naïve placement (Fig. 6).
const oversaturationPenalty = 0.8

// execute runs one transaction under the engine's design row and returns
// whether it committed: begin, lock, act and log every action where the row
// routes it, then commit (two-phase across islands), release and end. The
// caller owns sc and must have set sc.snap. Every piece of island wiring —
// sites, per-island logs, the 2PC coordinator, the transaction manager — comes
// from that snapshot, so an online island-level change never splits one
// transaction across two machine layouts. dispatch must have resolved t's
// actions into sc.acts.
func (e *Engine) execute(worker topology.CoreID, t *workload.Transaction, sc *execScratch) bool {
	sc.reset()
	r := e.row
	central := r.route == routeCoordinator // the central lock manager
	snap := sc.snap
	w := snap.wiring
	s := e.cfg.Topology.SocketOf(worker)
	homeSite := w.siteOf(worker)
	mgr := w.txnMgr

	tx := &sc.txn
	e.charge(worker, vclock.Management, mgr.BeginInto(tx, worker))
	id := lock.TxnID(tx.ID)

	// end releases every lock the transaction holds and commits or aborts it.
	end := func(commit bool) bool {
		if central {
			cost, _ := e.centralLocks.ReleaseAll(s, id)
			e.charge(worker, vclock.Locking, cost)
		} else {
			e.releaseLocal(id, sc.owners)
		}
		if !commit {
			cost, _ := mgr.Abort(tx)
			e.charge(worker, vclock.Management, cost)
			return false
		}
		// Only the central lock manager collects table modes; a committed
		// transaction leaves its table locks to the next one on this socket.
		for _, tm := range sc.tableModes {
			e.centralLocks.RetainForSLI(s, lock.TableResource(e.tables[tm.table].Name()), tm.mode)
		}
		cost, err := mgr.Commit(tx)
		e.charge(worker, vclock.Management, cost)
		return err == nil
	}

	if central {
		// Table-level intention locks first (hierarchical locking), then row
		// locks.
		for i, a := range t.Actions {
			if ti := sc.acts[i].table; ti >= 0 {
				_, tm := lockModeFor(a.Op)
				sc.upsertTableMode(ti, tm)
			}
		}
		for _, tm := range sc.tableModes {
			cost, err := e.centralLocks.Acquire(s, id, lock.TableResource(e.tables[tm.table].Name()), tm.mode)
			e.charge(worker, vclock.Locking, cost)
			e.traceOp(sc, obs.KindLockAcquire, worker, cost, errArg(err))
			if err != nil {
				return end(false)
			}
		}
	}

	// owners records, per action index, where the action executed: the
	// synchronization points index into it and partition-local locks are
	// released from it (a skipped action leaves a zero entry, which names no
	// lock table).
	sc.owners = append(sc.owners[:0], make([]lockedPartition, len(t.Actions))...)

	wrote := false
	for i, a := range t.Actions {
		ra := sc.acts[i]
		if ra.table < 0 {
			continue
		}
		at := lockedPartition{table: a.Table, idx: ra.part, core: worker, sock: s}
		tp := snap.tps[ra.table]
		switch {
		case r.route == routeOwner:
			at.core = e.effectiveCore(tp.Cores[at.idx])
			at.sock = e.cfg.Topology.SocketOf(at.core)
			// Action routing to the owning worker thread: an enqueue on the
			// partition's action queue, i.e. an atomic on a cache line owned
			// by the target island (DORA-style action passing, much cheaper
			// than the inter-process channels of shared-nothing). The
			// core-granular cost prices same-socket cross-die routing at the
			// cheaper die-hop rate.
			if at.core != worker {
				e.charge(worker, vclock.Communication, e.domain.CoreAtomicCost(worker, at.core))
			}
		case r.route == routeIsland:
			sc.addParticipant(at.idx)
			if at.idx != homeSite {
				peer := e.peer(w, at.idx, worker)
				at.core, at.sock = peer.ID, peer.Socket
				sc.addRemoteCore(at.core)
				// Request and response over the shared-memory channel. The
				// core-granular cost makes messages between die islands of
				// one socket cheaper than cross-socket messages.
				msg := e.domain.CoreMessageCost(worker, at.core) + e.domain.CoreMessageCost(at.core, worker)
				e.charge(worker, vclock.Communication, msg)
			}
		}
		if !central {
			at.lm = snap.locks[ra.table][at.idx]
		}
		sc.owners[i] = at

		rowMode, _ := lockModeFor(a.Op)
		var lockCost numa.Cost
		var lockErr error
		if central {
			lockCost, lockErr = e.centralLocks.Acquire(at.sock, id, lock.RowResource(a.Table, a.Key), rowMode)
		} else {
			lockCost, lockErr = at.lm.Acquire(at.sock, id, lock.RowResource(a.Table, a.Key), rowMode)
		}
		e.charge(at.core, vclock.Locking, lockCost)
		e.traceOp(sc, obs.KindLockAcquire, at.core, lockCost, errArg(lockErr))
		if lockErr != nil {
			return end(false)
		}

		execCost, applied, err := performAction(e.tables[ra.table], at.idx, a, at.core, &sc.row)
		if r.route == routeOwner {
			// A core hosting several partition workers executes slower.
			factor := saturationFactor(oversaturationPenalty, snap.active(tp.Cores[at.idx]))
			execCost = numa.Cost(float64(execCost) * factor)
		}
		e.charge(at.core, vclock.Execution, execCost)
		if err != nil {
			return end(false)
		}
		if a.Op.IsWrite() {
			wrote = true
			_, logCost := w.logs.Log(w.siteOf(at.core)).Append(at.sock, wal.Record{Txn: uint64(tx.ID), Type: recordTypeFor(a.Op, applied), Table: a.Table, Key: a.Key, Size: wal.WriteRecordSize})
			e.charge(at.core, vclock.Logging, logCost)
			e.traceOp(sc, obs.KindWALAppend, at.core, logCost, wal.WriteRecordSize)
		}
		// Monitoring: thread-local trace arrays on the owning worker.
		if r.route == routeOwner && e.adaptive != nil {
			e.adaptive.monitor.RecordIn(ra.table, at.idx, a.Key, vclock.Nanos(execCost))
			e.charge(at.core, vclock.Management, monitoringCostPerAction)
		}
	}

	// Synchronization points: actions running on different owners must
	// exchange their intermediate results. The cost is the hierarchical
	// rendezvous formula: pairs of participants spanning sockets pay socket
	// hops, pairs spanning dies of one socket pay the cheaper die hops.
	if r.route == routeOwner {
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
				e.adaptive.monitor.RecordSync(sc.syncRefs, sp.Bytes)
			}
		}
	}

	committed := true
	if len(sc.remoteCores) > 0 && wrote {
		// Distributed commit with the standard two-phase commit protocol;
		// every participating instance (island) is its own 2PC site.
		if out, err := w.coordinator.Run(tx, worker, homeSite, sc.participants, e.coreTime(worker), false); err == nil {
			committed = out.Committed
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
		log := w.logs.Log(homeSite)
		_, logCost := log.Append(s, wal.Record{Txn: uint64(tx.ID), Type: wal.Commit, Size: wal.CommitRecordSize})
		e.charge(worker, vclock.Logging, logCost)
		e.traceOp(sc, obs.KindWALAppend, worker, logCost, wal.CommitRecordSize)
		e.charge(worker, vclock.Logging, log.Flush(s, log.Tail(), e.coreTime(worker)))
	}
	return end(committed)
}
