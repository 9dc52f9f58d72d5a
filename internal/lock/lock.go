// Package lock implements the locking substrate of the storage manager: a
// hierarchical (table/row) lock table with intention modes, a centralized
// lock manager whose buckets live on shared cache lines (the design that
// collapses on multisockets), partition-local lock tables as used by PLP and
// ATraPos, and speculative lock inheritance for hot table-level locks.
package lock

import (
	"errors"
	"fmt"

	"atrapos/internal/schema"
)

// TxnID identifies a transaction for lock ownership purposes.
type TxnID uint64

// Mode is a lock mode.
type Mode int

const (
	// IS is intention-shared, taken on a table before row S locks.
	IS Mode = iota
	// IX is intention-exclusive, taken on a table before row X locks.
	IX
	// S is a shared lock.
	S
	// X is an exclusive lock.
	X
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case IS:
		return "IS"
	case IX:
		return "IX"
	case S:
		return "S"
	case X:
		return "X"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Compatible reports whether two lock modes held by different transactions
// can coexist on the same resource. The matrix is the classic hierarchical
// locking compatibility matrix.
func Compatible(a, b Mode) bool {
	switch a {
	case IS:
		return b != X
	case IX:
		return b == IS || b == IX
	case S:
		return b == IS || b == S
	case X:
		return false
	default:
		return false
	}
}

// stronger reports whether mode a subsumes mode b (holding a satisfies a
// request for b by the same transaction).
func stronger(a, b Mode) bool {
	rank := func(m Mode) int {
		switch m {
		case IS:
			return 0
		case IX, S:
			return 1
		case X:
			return 2
		default:
			return -1
		}
	}
	if a == b {
		return true
	}
	if a == IX && b == S || a == S && b == IX {
		return false
	}
	return rank(a) >= rank(b)
}

// Kind distinguishes table-level from row-level resources.
type Kind int

const (
	// TableKind is a table-granularity resource.
	TableKind Kind = iota
	// RowKind is a row-granularity resource.
	RowKind
)

// ResourceID names a lockable resource.
type ResourceID struct {
	Table string
	Key   schema.Key
	Kind  Kind
}

// TableResource returns the table-granularity resource for a table.
func TableResource(table string) ResourceID {
	return ResourceID{Table: table, Kind: TableKind}
}

// RowResource returns the row-granularity resource for a key of a table.
func RowResource(table string, key schema.Key) ResourceID {
	return ResourceID{Table: table, Key: key, Kind: RowKind}
}

// ErrConflict is returned when a lock request cannot be granted because an
// incompatible lock is held by another transaction. The storage manager uses
// a no-wait policy: the requester aborts and retries, which avoids deadlocks
// without a waits-for graph.
var ErrConflict = errors.New("lock: conflicting lock held")

// holder is one transaction's mode on a resource.
type holder struct {
	txn  TxnID
	mode Mode
}

type entry struct {
	res ResourceID
	// holders starts on the entry's own one-element array: a priced run has
	// one transaction in flight, so one holder is the only case it produces.
	holders []holder
	first   [1]holder
	// nextFree links entries on the table's free list while they are not in
	// use. Pooling freed entries keeps the acquire hot path allocation-free in
	// steady state: a transaction's locks are created and fully released every
	// few microseconds, and without the pool every acquire of a fresh resource
	// would allocate an entry.
	nextFree *entry
}

// heldLock records that txn was granted a lock on e's resource.
type heldLock struct {
	txn TxnID
	e   *entry
}

// Table is one lock table: a hash map from resources to lock entries plus the
// list of granted locks, so releasing a transaction costs O(locks held) and
// does not depend on the bucket count. A Table on its own is NUMA-oblivious;
// the managers in manager.go decide how many tables exist and which bucket
// header (BucketFor) an access is priced on.
//
// A Table, like the managers that wrap it, is single-owner: it has no
// synchronisation and must only be used by one goroutine at a time. A priced
// engine.Run is one goroutine and owns every lock table of its engine;
// executed mode never enters this package. What would break the rule is two
// engines sharing a table, and that is what `make race` runs the harness's
// TestParallelSweepBitIdentical for: it prices many engines concurrently, so
// a table reachable from two of them is a data race the detector reports.
type Table struct {
	nBuckets int
	entries  map[ResourceID]*entry
	// held has one record per (txn, resource) grant, appended when the
	// transaction first locks the resource (an upgrade adds none) and removed
	// by ReleaseAll.
	held []heldLock
	free *entry
}

// NewTable creates a lock table whose resources spread over the given number
// of bucket headers.
func NewTable(nBuckets int) *Table {
	if nBuckets < 1 {
		nBuckets = 1
	}
	return &Table{nBuckets: nBuckets, entries: make(map[ResourceID]*entry)}
}

// BucketFor returns the bucket index for a resource; exported so managers can
// attribute cache-line costs to the right bucket.
func (t *Table) BucketFor(res ResourceID) int {
	h := uint64(14695981039346656037)
	for _, c := range res.Table {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= uint64(res.Key)
	h *= 1099511628211
	h ^= uint64(res.Kind)
	return int(h % uint64(t.nBuckets))
}

// Acquire grants mode on res to txn, or returns ErrConflict. Re-acquisition
// by the same transaction succeeds if the held mode already subsumes the
// request; otherwise the held mode is upgraded when no other holder conflicts.
func (t *Table) Acquire(txn TxnID, res ResourceID, mode Mode) error {
	e := t.entries[res]
	if e == nil {
		if e = t.free; e != nil {
			t.free, e.nextFree = e.nextFree, nil
		} else {
			e = &entry{}
			e.holders = e.first[:0]
		}
		e.res = res
		t.entries[res] = e
	}
	own, conflict := -1, false
	for i, h := range e.holders {
		if h.txn == txn {
			own = i
		} else if !Compatible(mode, h.mode) {
			conflict = true
		}
	}
	switch {
	case own >= 0 && stronger(e.holders[own].mode, mode):
	case conflict:
		return ErrConflict
	case own >= 0:
		e.holders[own].mode = mode
	default:
		e.holders = append(e.holders, holder{txn, mode})
		t.held = append(t.held, heldLock{txn, e})
	}
	return nil
}

// ReleaseAll drops every lock held by txn and returns how many were released.
// It walks the held list only: records of other transactions are compacted in
// place, in order.
func (t *Table) ReleaseAll(txn TxnID) int {
	kept := t.held[:0]
	for _, h := range t.held {
		if h.txn != txn {
			kept = append(kept, h)
			continue
		}
		e := h.e
		last := len(e.holders) - 1
		for i := range e.holders {
			if e.holders[i].txn == txn {
				e.holders[i] = e.holders[last]
				e.holders = e.holders[:last]
				break
			}
		}
		if last == 0 {
			delete(t.entries, e.res)
			e.nextFree, t.free = t.free, e
		}
	}
	released := len(t.held) - len(kept)
	t.held = kept
	return released
}

// Held returns the mode txn holds on res, if any.
func (t *Table) Held(txn TxnID, res ResourceID) (Mode, bool) {
	if e := t.entries[res]; e != nil {
		for _, h := range e.holders {
			if h.txn == txn {
				return h.mode, true
			}
		}
	}
	return 0, false
}

// Holders returns how many transactions hold a lock on res.
func (t *Table) Holders(res ResourceID) int {
	if e := t.entries[res]; e != nil {
		return len(e.holders)
	}
	return 0
}

// Len returns the number of locked resources (for observability and tests).
func (t *Table) Len() int { return len(t.entries) }
