// Package txn implements transaction management: transaction identities and
// state, the transaction manager that the engines drive (with its list of
// active transactions, centralized or per socket), and the two-phase-commit
// helper used for distributed transactions in shared-nothing configurations.
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
}

// NewCentralList and NewPartitionedList remain for the frozen benchmark
// module, which builds its active lists with them.

// NewCentralList returns numa.NewStriped(d, false).
func NewCentralList(d *numa.Domain) *numa.Striped { return numa.NewStriped(d, false) }

// NewPartitionedList returns numa.NewStriped(d, true).
func NewPartitionedList(d *numa.Domain) *numa.Striped { return numa.NewStriped(d, true) }

// Manager creates, commits and aborts transactions. It owns the id sequence,
// the list of active transactions and the global state lock that transactions
// acquire in read mode during begin (the "volume lock" of Shore-MT).
//
// Shore-MT keeps the active list as one lock-free list whose head every
// beginning and finishing transaction CASes; ATraPos keeps one list per socket
// (Section IV, "List of transactions"), and likewise one state lock per socket.
// Both are injected as numa.Striped lines — one shared stripe for the baseline
// designs, one stripe per socket for the NUMA-aware ones — and priced as one
// atomic on the accessing socket's stripe. They keep no ids: a priced run holds
// one transaction at a time, and nothing reads the list's contents. A Manager
// is single-owner like the lines it prices: it belongs to one engine (or one
// island), and its id sequence is a plain integer advanced only by the priced
// run's one goroutine.
type Manager struct {
	domain *numa.Domain
	nextID ID
	active *numa.Striped
	state  *numa.Striped
}

// NewManager builds a transaction manager.
func NewManager(d *numa.Domain, active, state *numa.Striped) *Manager {
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
	cost += m.state.Atomic(s) // read acquisition
	cost += m.state.Atomic(s) // read release
	cost += m.active.Atomic(s)
	return cost
}

// Commit finishes t successfully and removes it from the active list.
func (m *Manager) Commit(t *Txn) (numa.Cost, error) {
	if t.State != Active && t.State != Preparing {
		return 0, fmt.Errorf("txn: commit of transaction %d in state %v", t.ID, t.State)
	}
	t.State = Committed
	return m.active.Atomic(t.Socket), nil
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
	return m.active.Atomic(t.Socket), nil
}
