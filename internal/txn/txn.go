// Package txn implements transaction management: transaction identities and
// state, the list of active transactions (in both its centralized and its
// NUMA-aware per-socket form), the transaction manager that the engines drive,
// and the two-phase-commit helper used for distributed transactions in
// shared-nothing configurations.
package txn

import (
	"fmt"

	"atrapos/internal/numa"
	"atrapos/internal/topology"
)

// ID identifies a transaction.
type ID uint64

// State is the lifecycle state of a transaction.
type State int

const (
	// Active means the transaction is executing.
	Active State = iota
	// Preparing means the transaction has voted in 2PC and awaits the decision.
	Preparing
	// Committed is the terminal success state.
	Committed
	// Aborted is the terminal failure state.
	Aborted
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Preparing:
		return "preparing"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Txn is one transaction. A transaction is created, executed and finished by
// a single worker thread; its fields are not protected by a mutex.
type Txn struct {
	ID     ID
	State  State
	Core   topology.CoreID
	Socket topology.SocketID
	// Distributed marks transactions that span more than one shared-nothing instance.
	Distributed bool
}

// ActiveList is the list of in-flight transactions. Shore-MT keeps it as one
// lock-free list whose head every beginning and finishing transaction CASes;
// ATraPos partitions it per socket (Section IV, "List of transactions").
//
// Both implementations price that head CAS on a numa.CacheLine and keep no
// ids: a priced run holds one transaction at a time, and nothing reads the
// list's contents. They are single-owner like the cache lines they price: a
// list belongs to one engine's transaction manager (or one island's), and the
// priced run that drives it is one goroutine.
type ActiveList interface {
	// Add registers a transaction as active on behalf of a worker on socket s.
	Add(s topology.SocketID) numa.Cost
	// Remove unregisters a transaction; it must be called from the same
	// socket that added it (thread binding guarantees this in ATraPos).
	Remove(s topology.SocketID) numa.Cost
}

// CentralList is the traditional single list of active transactions. Every
// Add/Remove does an atomic on the shared list head.
type CentralList struct {
	head *numa.CacheLine
}

// NewCentralList builds a centralized active-transaction list homed on socket 0.
func NewCentralList(d *numa.Domain) *CentralList {
	return &CentralList{head: numa.NewCacheLine(d, 0)}
}

// Add implements ActiveList.
func (l *CentralList) Add(s topology.SocketID) numa.Cost { return l.head.Atomic(s) }

// Remove implements ActiveList.
func (l *CentralList) Remove(s topology.SocketID) numa.Cost { return l.head.Atomic(s) }

// PartitionedList keeps one active-transaction list per socket, so adding and
// removing a transaction in the critical path never crosses a socket.
type PartitionedList struct {
	lines *numa.Striped
}

// NewPartitionedList builds one list per socket of the domain.
func NewPartitionedList(d *numa.Domain) *PartitionedList {
	return &PartitionedList{lines: numa.NewStriped(d)}
}

// Add implements ActiveList.
func (p *PartitionedList) Add(s topology.SocketID) numa.Cost { return p.lines.Local(s).Atomic(s) }

// Remove implements ActiveList.
func (p *PartitionedList) Remove(s topology.SocketID) numa.Cost { return p.lines.Local(s).Atomic(s) }

// Manager creates, commits and aborts transactions. It owns the id sequence,
// the active list and the global state lock that transactions acquire in read
// mode during begin (the "volume lock" of Shore-MT). Both the active list and
// the state lock are injected, so the same manager code runs with centralized
// structures (the baseline designs) or NUMA-aware ones (ATraPos). Like the
// lists, a Manager is single-owner: its id sequence is a plain integer,
// advanced only by the priced run's one goroutine.
type Manager struct {
	domain *numa.Domain
	nextID ID
	active ActiveList
	state  numa.StateLock
}

// NewManager builds a transaction manager.
func NewManager(d *numa.Domain, active ActiveList, state numa.StateLock) *Manager {
	return &Manager{domain: d, active: active, state: state}
}

// BeginInto starts a transaction on the given core, writing it into the
// caller-owned Txn — a worker reuses one Txn for its whole run instead of
// allocating one per transaction — and returns the virtual cost of transaction
// initialization (id assignment, volume lock in read mode, insertion into the
// active list). The Txn must not be in the active list (i.e. its previous use
// must have ended in Commit or Abort).
func (m *Manager) BeginInto(t *Txn, core topology.CoreID) numa.Cost {
	s := m.domain.Top.SocketOf(core)
	m.nextID++
	*t = Txn{
		ID:     m.nextID,
		State:  Active,
		Core:   core,
		Socket: s,
	}
	var cost numa.Cost
	cost += m.state.RLock(s)
	cost += m.state.RUnlock(s)
	cost += m.active.Add(s)
	return cost
}

// Commit finishes t successfully and removes it from the active list.
func (m *Manager) Commit(t *Txn) (numa.Cost, error) {
	if t.State != Active && t.State != Preparing {
		return 0, fmt.Errorf("txn: commit of transaction %d in state %v", t.ID, t.State)
	}
	t.State = Committed
	return m.active.Remove(t.Socket), nil
}

// Abort rolls t back and removes it from the active list.
func (m *Manager) Abort(t *Txn) (numa.Cost, error) {
	if t.State == Committed {
		return 0, fmt.Errorf("txn: abort of committed transaction %d", t.ID)
	}
	if t.State == Aborted {
		return 0, nil
	}
	t.State = Aborted
	return m.active.Remove(t.Socket), nil
}
