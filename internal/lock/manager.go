package lock

import (
	"atrapos/internal/numa"
	"atrapos/internal/topology"
)

// CentralManager is the traditional centralized lock manager: one lock table
// shared by every worker in the system. Each bucket header is modeled as a
// cache line homed on socket 0, so acquisitions from other sockets pay
// cache-line transfer costs — the contention the paper identifies as the
// first scalability bottleneck of shared-everything designs. Every call
// returns the virtual cost of the operation so the caller can charge it to the
// worker's clock.
//
// CentralManager optionally applies speculative lock inheritance (SLI):
// table-level intention locks released at commit are retained by the worker
// that released them, so the next transaction on the same worker re-acquires
// them without touching the shared bucket.
//
// Like the Table it wraps, a CentralManager is single-owner: "shared by every
// worker" is priced on the bucket cache lines in virtual time, while on the
// host one goroutine — the engine's run loop — makes every call.
type CentralManager struct {
	table *Table
	lines []*numa.CacheLine

	sliEnabled bool
	// sli holds, per socket, the table locks that socket's worker retained:
	// one record per table, a handful per socket.
	sli     [][]retained
	sliHits int64
}

// retained is one table-level lock a socket inherits under SLI.
type retained struct {
	table string
	mode  Mode
}

// NewCentralManager builds a centralized manager over domain d whose
// resources spread over the given number of bucket headers.
func NewCentralManager(d *numa.Domain, buckets int, sli bool) *CentralManager {
	m := &CentralManager{
		table:      NewTable(),
		lines:      make([]*numa.CacheLine, buckets),
		sliEnabled: sli,
		sli:        make([][]retained, d.Top.Sockets()),
	}
	for i := range m.lines {
		m.lines[i] = numa.NewCacheLine(d, 0)
	}
	return m
}

// BucketFor returns the bucket header a resource's accesses are priced on:
// FNV-1a over the table name, the key and the kind, modulo the bucket count.
func (m *CentralManager) BucketFor(res ResourceID) int {
	h := uint64(14695981039346656037)
	for _, c := range res.Table {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= uint64(res.Key)
	h *= 1099511628211
	h ^= uint64(res.Kind)
	return int(h % uint64(len(m.lines)))
}

// retainedOn returns table's record in s's SLI list, or nil.
func (m *CentralManager) retainedOn(s topology.SocketID, table string) *retained {
	for i := range m.sli[s] {
		if m.sli[s][i].table == table {
			return &m.sli[s][i]
		}
	}
	return nil
}

// Acquire requests mode on res for txn on behalf of a worker running on
// socket s.
func (m *CentralManager) Acquire(s topology.SocketID, txn TxnID, res ResourceID, mode Mode) (numa.Cost, error) {
	if m.sliEnabled && res.Kind == TableKind {
		if r := m.retainedOn(s, res.Table); r != nil && stronger(r.mode, mode) {
			m.sliHits++
			// The lock is inherited: only a thread-local check is needed.
			return 0, nil
		}
	}
	cost := m.lines[m.BucketFor(res)].Atomic(s)
	return cost, m.table.Acquire(txn, res, mode)
}

// ReleaseAll drops all locks of txn and returns the cost and the number of
// locks released; with SLI the caller follows up with RetainForSLI for the
// table-level locks the socket should inherit.
//
// Releasing touches bucket headers again, priced as one atomic access per
// released lock — but on lines 0..released-1, not on the buckets the locks
// live in, and with no per-batch access. That is an approximation the
// virtual-time baselines were recorded with; the table's held list knows the
// real buckets, so pricing them is a change to this loop at the next
// re-baseline (see ROADMAP).
func (m *CentralManager) ReleaseAll(s topology.SocketID, txn TxnID) (numa.Cost, int) {
	var cost numa.Cost
	released := m.table.ReleaseAll(txn)
	for i := 0; i < released; i++ {
		cost += m.lines[i%len(m.lines)].Atomic(s)
	}
	return cost, released
}

// RetainForSLI records that the worker on socket s finished a transaction
// that held mode on table resource res; subsequent acquisitions of a weaker
// or equal mode from the same socket are served from the cache. A later
// retain of the same table replaces the mode.
func (m *CentralManager) RetainForSLI(s topology.SocketID, res ResourceID, mode Mode) {
	if !m.sliEnabled || res.Kind != TableKind {
		return
	}
	if r := m.retainedOn(s, res.Table); r != nil {
		r.mode = mode
		return
	}
	m.sli[s] = append(m.sli[s], retained{res.Table, mode})
}

// SLIHits returns how many acquisitions were served by speculative lock inheritance.
func (m *CentralManager) SLIHits() int64 { return m.sliHits }

// Table exposes the underlying lock table for tests.
func (m *CentralManager) Table() *Table { return m.table }

// LocalManager is a partition-local lock table as used by PLP and ATraPos:
// each logical partition has its own small lock table accessed by exactly one
// worker thread, so acquisitions are island-local and uncontended. The cost
// charged is the local atomic cost of the owning socket's stripe. The table
// is priced on a single cache line — the partition's one bucket header — and,
// like every Table, has a single owner on the host.
//
// A LocalManager is homed on the island of the partition's owning core: it
// records both the socket (which prices the cache-line stripe) and, on
// hierarchical machines, the die, so that repartitioning can tell whether a
// candidate lock table is really local to a partition's new owner or merely
// on the right socket.
type LocalManager struct {
	table   *Table
	line    *numa.CacheLine
	home    topology.SocketID
	homeDie topology.DieID
}

// NewLocalManagerAt creates a partition-local lock table homed on the island
// of the given owner core: its socket for cost purposes and its die for
// island-locality checks.
func NewLocalManagerAt(d *numa.Domain, owner topology.CoreID) *LocalManager {
	return &LocalManager{
		table:   NewTable(),
		line:    numa.NewCacheLine(d, d.Top.SocketOf(owner)),
		home:    d.Top.SocketOf(owner),
		homeDie: d.Top.DieOf(owner),
	}
}

// Home returns the socket the lock table is currently homed on.
func (m *LocalManager) Home() topology.SocketID { return m.home }

// HomeDie returns the die the lock table is currently homed on.
func (m *LocalManager) HomeDie() topology.DieID { return m.homeDie }

// Acquire requests mode on res for txn on behalf of a worker running on
// socket s.
func (m *LocalManager) Acquire(s topology.SocketID, txn TxnID, res ResourceID, mode Mode) (numa.Cost, error) {
	return m.line.Atomic(s), m.table.Acquire(txn, res, mode)
}

// ReleaseAll drops all locks of txn and returns the cost and the number of
// locks released. Releasing nothing touches no line and costs nothing.
func (m *LocalManager) ReleaseAll(s topology.SocketID, txn TxnID) (numa.Cost, int) {
	released := m.table.ReleaseAll(txn)
	var cost numa.Cost
	if released > 0 {
		cost = m.line.Atomic(s)
	}
	return cost, released
}

// Table exposes the underlying lock table for tests.
func (m *LocalManager) Table() *Table { return m.table }
