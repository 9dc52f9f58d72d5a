// Package lock implements the locking substrate of the storage manager: a
// hierarchical (table/row) lock table with intention modes, a centralized
// lock manager whose buckets live on shared cache lines (the design that
// collapses on multisockets), partition-local lock tables as used by PLP and
// ATraPos, and speculative lock inheritance for hot table-level locks. The
// contention is priced, not enacted: a lock table is the list of its grants,
// and the bucket headers exist only as the central manager's priced cache
// lines.
package lock

import (
	"errors"
	"fmt"
	"slices"

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

// grant is one transaction's mode on one resource.
type grant struct {
	res  ResourceID
	txn  TxnID
	mode Mode
}

// Table is one lock table: the list of granted locks, one record per (txn,
// resource), and nothing else. A priced run has one transaction holding locks
// at a time and releases all of them when it ends, so the list is as long as
// that transaction's lock set and every operation scans it; transactions that
// share the list (the lock tests keep several in flight) still conflict. A
// Table on its own is NUMA-oblivious: the managers in manager.go decide how
// many tables exist and which priced cache line an access lands on.
//
// A Table, like the managers that wrap it, is single-owner: it has no
// synchronisation and must only be used by one goroutine at a time. A priced
// engine.Run is one goroutine and owns every lock table of its engine;
// executed mode never enters this package. What would break the rule is two
// engines sharing a table, and that is what `make race` runs the harness's
// TestParallelSweepBitIdentical for: it prices many engines concurrently, so
// a table reachable from two of them is a data race the detector reports.
type Table struct {
	// held is appended when a transaction first locks a resource (an upgrade
	// changes the record in place) and compacted in order by ReleaseAll.
	held []grant
}

// NewTable creates an empty lock table.
func NewTable() *Table { return &Table{} }

// Acquire grants mode on res to txn, or returns ErrConflict. Re-acquisition
// by the same transaction succeeds if the held mode already subsumes the
// request; otherwise the held mode is upgraded when no other transaction's
// grant conflicts.
func (t *Table) Acquire(txn TxnID, res ResourceID, mode Mode) error {
	own, conflict := -1, false
	for i := range t.held {
		g := &t.held[i]
		if g.res != res {
			continue
		}
		if g.txn == txn {
			own = i
		} else if !Compatible(mode, g.mode) {
			conflict = true
		}
	}
	switch {
	case own >= 0 && stronger(t.held[own].mode, mode):
	case conflict:
		return ErrConflict
	case own >= 0:
		t.held[own].mode = mode
	default:
		t.held = append(t.held, grant{res, txn, mode})
	}
	return nil
}

// ReleaseAll drops every lock held by txn and returns how many were released.
// Records of other transactions are compacted in place, in order.
func (t *Table) ReleaseAll(txn TxnID) int {
	kept := t.held[:0]
	for _, g := range t.held {
		if g.txn != txn {
			kept = append(kept, g)
		}
	}
	released := len(t.held) - len(kept)
	t.held = kept
	return released
}

// Held returns the mode txn holds on res, if any.
func (t *Table) Held(txn TxnID, res ResourceID) (Mode, bool) {
	for _, g := range t.held {
		if g.txn == txn && g.res == res {
			return g.mode, true
		}
	}
	return 0, false
}

// Holders returns how many transactions hold a lock on res.
func (t *Table) Holders(res ResourceID) int {
	n := 0
	for _, g := range t.held {
		if g.res == res {
			n++
		}
	}
	return n
}

// Len returns the number of locked resources (for observability and tests).
func (t *Table) Len() int {
	n := 0
	for i, g := range t.held {
		if !slices.ContainsFunc(t.held[:i], func(h grant) bool { return h.res == g.res }) {
			n++
		}
	}
	return n
}
