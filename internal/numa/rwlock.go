package numa

import "atrapos/internal/topology"

// StateLock is the interface of the read/write locks that protect global
// system state (the volume lock, the checkpoint mutex, ...). Transactions
// acquire them in read mode in the critical path; background operations
// (checkpointing, page cleaning) acquire them in write mode.
//
// Both implementations are priced lines, not host locks: an acquisition or
// release touches the modeled cache line(s) and returns the virtual cost for
// the caller to charge to its worker clock. Nothing blocks. A state lock
// belongs to one engine's transaction manager (or one island's), which only
// the priced run's single goroutine drives — executed mode never begins a
// priced transaction — so there is no host concurrency to exclude.
type StateLock interface {
	// RLock acquires the lock in read mode on behalf of a thread running on
	// socket s and returns the virtual cost of doing so.
	RLock(s topology.SocketID) Cost
	// RUnlock releases a read acquisition made from socket s.
	RUnlock(s topology.SocketID) Cost
	// Lock acquires the lock in write mode (background operations only).
	Lock(s topology.SocketID) Cost
	// Unlock releases a write acquisition.
	Unlock(s topology.SocketID) Cost
}

// CentralRWLock is the traditional centralized reader/writer lock: one lock,
// one cache line, shared by every thread in the system. Read acquisitions
// from different sockets bounce the line across the interconnect.
type CentralRWLock struct {
	line *CacheLine
}

// NewCentralRWLock builds a centralized state lock homed on socket 0.
func NewCentralRWLock(d *Domain) *CentralRWLock {
	return &CentralRWLock{line: NewCacheLine(d, 0)}
}

// RLock implements StateLock.
func (l *CentralRWLock) RLock(s topology.SocketID) Cost { return l.line.Atomic(s) }

// RUnlock implements StateLock.
func (l *CentralRWLock) RUnlock(s topology.SocketID) Cost { return l.line.Atomic(s) }

// Lock implements StateLock.
func (l *CentralRWLock) Lock(s topology.SocketID) Cost { return l.line.Atomic(s) }

// Unlock implements StateLock.
func (l *CentralRWLock) Unlock(s topology.SocketID) Cost { return l.line.Atomic(s) }

// PartitionedRWLock is the NUMA-aware state lock of Section IV: one
// reader/writer lock per socket. Readers only ever touch their socket-local
// lock; writers must acquire every per-socket lock, which is acceptable
// because write acquisitions never happen in the critical path.
type PartitionedRWLock struct {
	lines *Striped
}

// NewPartitionedRWLock builds one reader/writer lock per socket.
func NewPartitionedRWLock(d *Domain) *PartitionedRWLock {
	return &PartitionedRWLock{lines: NewStriped(d)}
}

// RLock implements StateLock: readers acquire only the socket-local stripe.
func (l *PartitionedRWLock) RLock(s topology.SocketID) Cost { return l.lines.Local(s).Atomic(s) }

// RUnlock implements StateLock.
func (l *PartitionedRWLock) RUnlock(s topology.SocketID) Cost { return l.lines.Local(s).Atomic(s) }

// Lock implements StateLock: writers take every per-socket stripe, in order,
// which is what excludes all readers on all sockets.
func (l *PartitionedRWLock) Lock(s topology.SocketID) Cost {
	var c Cost
	for _, line := range l.lines.All() {
		c += line.Atomic(s)
	}
	return c
}

// Unlock implements StateLock.
func (l *PartitionedRWLock) Unlock(s topology.SocketID) Cost {
	var c Cost
	all := l.lines.All()
	for i := len(all) - 1; i >= 0; i-- {
		c += all[i].Atomic(s)
	}
	return c
}
