package numa

import "atrapos/internal/topology"

// StateLock is the interface of the read/write locks that protect global
// system state (the volume lock, the checkpoint mutex, ...). Transactions
// acquire them in read mode in the critical path; the model takes no write
// acquisition.
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

// PartitionedRWLock is the NUMA-aware state lock of Section IV: one
// reader/writer lock per socket. Readers only ever touch their socket-local
// lock.
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
