package lock

import (
	"atrapos/internal/numa"
	"atrapos/internal/topology"
)

// Manager is the interface the execution engines use to acquire locks. Every
// call returns the virtual cost of the operation so the caller can charge it
// to the worker's clock; implementations differ in how much of that cost
// crosses socket boundaries.
type Manager interface {
	// Acquire requests mode on res for txn on behalf of a worker running on
	// socket s.
	Acquire(s topology.SocketID, txn TxnID, res ResourceID, mode Mode) (numa.Cost, error)
	// ReleaseAll drops all locks of txn and returns the cost and the number
	// of locks released.
	ReleaseAll(s topology.SocketID, txn TxnID) (numa.Cost, int)
}

// CentralManager is the traditional centralized lock manager: one lock table
// shared by every worker in the system. Each bucket header is modeled as a
// cache line homed on socket 0, so acquisitions from other sockets pay
// cache-line transfer costs — the contention the paper identifies as the
// first scalability bottleneck of shared-everything designs.
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
	sli        map[topology.SocketID]map[ResourceID]Mode
	sliHits    int64
}

// NewCentralManager builds a centralized manager over domain d.
func NewCentralManager(d *numa.Domain, buckets int, sli bool) *CentralManager {
	m := &CentralManager{
		table:      NewTable(buckets),
		lines:      make([]*numa.CacheLine, buckets),
		sliEnabled: sli,
		sli:        make(map[topology.SocketID]map[ResourceID]Mode),
	}
	for i := range m.lines {
		m.lines[i] = numa.NewCacheLine(d, 0)
	}
	return m
}

// Acquire implements Manager.
func (m *CentralManager) Acquire(s topology.SocketID, txn TxnID, res ResourceID, mode Mode) (numa.Cost, error) {
	if m.sliEnabled && res.Kind == TableKind {
		if held, ok := m.sli[s][res]; ok && stronger(held, mode) {
			m.sliHits++
			// The lock is inherited: only a thread-local check is needed.
			return 0, nil
		}
	}
	cost := m.lines[m.table.BucketFor(res)].Atomic(s)
	return cost, m.table.Acquire(txn, res, mode)
}

// ReleaseAll implements Manager; with SLI the caller follows up with
// RetainForSLI for the table-level locks the socket should inherit.
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
// or equal mode from the same socket are served from the cache.
func (m *CentralManager) RetainForSLI(s topology.SocketID, res ResourceID, mode Mode) {
	if !m.sliEnabled || res.Kind != TableKind {
		return
	}
	if m.sli[s] == nil {
		m.sli[s] = make(map[ResourceID]Mode)
	}
	m.sli[s][res] = mode
}

// SLIHits returns how many acquisitions were served by speculative lock inheritance.
func (m *CentralManager) SLIHits() int64 { return m.sliHits }

// Table exposes the underlying lock table for tests.
func (m *CentralManager) Table() *Table { return m.table }

// LocalManager is a partition-local lock table as used by PLP and ATraPos:
// each logical partition has its own small lock table accessed by exactly one
// worker thread, so acquisitions are island-local and uncontended. The cost
// charged is the local atomic cost of the owning socket's stripe. The table
// has a single bucket header — the partition's one cache line — and, like
// every Table, a single owner on the host.
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
		table:   NewTable(1),
		line:    numa.NewCacheLine(d, d.Top.SocketOf(owner)),
		home:    d.Top.SocketOf(owner),
		homeDie: d.Top.DieOf(owner),
	}
}

// Home returns the socket the lock table is currently homed on.
func (m *LocalManager) Home() topology.SocketID { return m.home }

// HomeDie returns the die the lock table is currently homed on.
func (m *LocalManager) HomeDie() topology.DieID { return m.homeDie }

// Acquire implements Manager.
func (m *LocalManager) Acquire(s topology.SocketID, txn TxnID, res ResourceID, mode Mode) (numa.Cost, error) {
	return m.line.Atomic(s), m.table.Acquire(txn, res, mode)
}

// ReleaseAll implements Manager.
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
