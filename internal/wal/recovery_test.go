package wal

import (
	"slices"
	"testing"

	"atrapos/internal/numa"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
)

// mapStore is a trivial RowStore for recovery tests.
type mapStore struct {
	rows map[schema.Key]schema.Row
}

func newMapStore() *mapStore { return &mapStore{rows: make(map[schema.Key]schema.Row)} }

func (m *mapStore) ApplyInsert(key schema.Key, row schema.Row) { m.rows[key] = row }
func (m *mapStore) ApplyDelete(key schema.Key)                 { delete(m.rows, key) }

func TestRecoverRedoesOnlyWinners(t *testing.T) {
	top := topology.MustNew(topology.Config{Sockets: 2, CoresPerSocket: 1})
	d := numa.NewDomain(top)
	l := NewCentralLog(d, 0, DefaultConfig())

	// Winner transaction 1: two updates and a commit.
	l.Append(0, Record{Txn: 1, Type: Update, Table: "t", Key: 10, Size: 32})
	l.Append(0, Record{Txn: 1, Type: Insert, Table: "t", Key: 11, Size: 32})
	commitLSN, _ := l.Append(0, Record{Txn: 1, Type: Commit, Size: 16})
	// Loser transaction 2: an update with no commit.
	l.Append(1, Record{Txn: 2, Type: Update, Table: "t", Key: 20, Size: 32})
	// Winner transaction 3: a delete.
	l.Append(1, Record{Txn: 3, Type: Delete, Table: "t", Key: 11, Size: 16})
	l.Append(1, Record{Txn: 3, Type: Commit, Size: 16})
	// A record for an unknown table is skipped gracefully.
	l.Append(0, Record{Txn: 3, Type: Update, Table: "unknown", Key: 1, Size: 16})

	store := newMapStore()
	stats, err := Recover(l.Records(), commitLSN, false, map[string]RowStore{"t": store})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WinnerTxns != 2 || stats.LoserTxns != 1 {
		t.Errorf("winners=%d losers=%d", stats.WinnerTxns, stats.LoserTxns)
	}
	if stats.Redone != 3 {
		t.Errorf("redone=%d, want 3 (two winner writes + one delete)", stats.Redone)
	}
	if _, ok := store.rows[10]; !ok {
		t.Error("winner update on key 10 not redone")
	}
	if _, ok := store.rows[11]; ok {
		t.Error("delete of key 11 by winner txn 3 not applied")
	}
	if _, ok := store.rows[20]; ok {
		t.Error("loser transaction 2's update must not be redone")
	}
	if stats.HighestLSN == 0 || stats.Scanned != 7 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestRecoverDurableBoundary(t *testing.T) {
	top := topology.MustNew(topology.Config{Sockets: 1, CoresPerSocket: 1})
	d := numa.NewDomain(top)
	l := NewCentralLog(d, 0, DefaultConfig())

	l.Append(0, Record{Txn: 1, Type: Update, Table: "t", Key: 1, Size: 16})
	lsn, _ := l.Append(0, Record{Txn: 1, Type: Commit, Size: 16})
	l.Flush(0, lsn, 0)
	// Transaction 2 commits after the durability horizon.
	l.Append(0, Record{Txn: 2, Type: Update, Table: "t", Key: 2, Size: 16})
	l.Append(0, Record{Txn: 2, Type: Commit, Size: 16})

	store := newMapStore()
	stats, err := Recover(l.Records(), l.Durable(), true, map[string]RowStore{"t": store})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.rows[1]; !ok {
		t.Error("durable winner not redone")
	}
	if _, ok := store.rows[2]; ok {
		t.Error("record beyond the durable LSN must not be redone when durableOnly is set")
	}
	if !stats.DurableOnly || stats.Skipped == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestRecoverValidation(t *testing.T) {
	if _, err := Recover(nil, 0, false, nil); err == nil {
		t.Error("nil table map should error")
	}
	stats, err := Recover(nil, 0, false, map[string]RowStore{})
	if err != nil || stats.Scanned != 0 {
		t.Errorf("empty recovery: %+v, %v", stats, err)
	}
}

// recoverOp encodes one step of FuzzRecover's stream: bits 0-1 pick one of
// four transaction slots, bits 2-4 a key of table "t", bits 5-7 the step.
// Steps below recoverCommit write recoverWrites[step], opening a transaction in
// the slot if none is open; the others end the slot's transaction.
func recoverOp(step, key, slot byte) byte { return step<<5 | key<<2 | slot }

var recoverWrites = [...]RecordType{Insert, Update, Delete, Update}

const (
	recoverCommit  byte = 4 // and 5: the transaction commits
	recoverAbort   byte = 6 // logs an Abort: a loser
	recoverAbandon byte = 7 // logs nothing: a loser still in flight at the drain
)

// replayStream appends the decoded stream to l, flushing each commit as the
// engine does, and drains the log. Writers hold their keys until their outcome
// record, as under strict two-phase locking: a write on a key another open
// transaction wrote is dropped (the lock layer would make it wait), so every
// key's writes commit in the order they were logged. A transaction abandoned
// in flight keeps its keys.
func replayStream(l *CentralLog, data []byte) {
	var open [4]uint64
	var owner [8]uint64
	release := func(txn uint64) {
		for k, o := range owner {
			if o == txn {
				owner[k] = 0
			}
		}
	}
	next := uint64(1)
	for i, b := range data {
		step, key, slot := b>>5, b>>2&7, b&3
		txn := open[slot]
		switch {
		case step < recoverCommit:
			if owner[key] != 0 && owner[key] != txn {
				continue
			}
			if txn == 0 {
				txn, next = next, next+1
				open[slot] = txn
			}
			owner[key] = txn
			l.Append(0, Record{Txn: txn, Type: recoverWrites[step], Table: "t", Key: schema.Key(key), Size: 32})
			continue
		case txn == 0: // no transaction open in the slot
		case step < recoverAbort:
			lsn, _ := l.Append(0, Record{Txn: txn, Type: Commit, Size: 16})
			l.Flush(0, lsn, vclock.Nanos(i))
			release(txn)
		case step == recoverAbort:
			l.Append(0, Record{Txn: txn, Type: Abort, Size: 16})
			release(txn)
		}
		open[slot] = 0
	}
	l.Drain(vclock.Nanos(len(data)))
}

// FuzzRecover holds the coalescer to the uncoalesced log: one stream of
// interleaved transactions, each a few writes on eight keys that end in a
// commit or stay losers, goes into a coalescing log and into a plain one, and
// redo recovery must rebuild the same key set from both.
func FuzzRecover(f *testing.F) {
	f.Add(uint8(3), []byte(nil))
	// A winner inserts key 1; a second transaction deletes it and aborts.
	f.Add(uint8(3), []byte{recoverOp(0, 1, 0), recoverOp(recoverCommit, 0, 0),
		recoverOp(2, 1, 1), recoverOp(recoverAbort, 0, 1)})
	// The same, with the loser still in flight at the drain.
	f.Add(uint8(3), []byte{recoverOp(0, 1, 0), recoverOp(recoverCommit, 0, 0),
		recoverOp(2, 1, 1), recoverOp(recoverAbandon, 0, 1)})
	// Interleaved writers, an insert-delete pair netting to a tombstone, and
	// a one-entry threshold that flushes on every commit.
	f.Add(uint8(0), []byte{recoverOp(0, 2, 0), recoverOp(1, 2, 1), recoverOp(0, 3, 1), recoverOp(2, 3, 1),
		recoverOp(recoverCommit, 0, 1), recoverOp(1, 2, 2), recoverOp(recoverCommit, 0, 0), recoverOp(2, 2, 2)})
	f.Fuzz(func(t *testing.T, coalesce uint8, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		threshold := 1 + int(coalesce%8)
		plainCfg := DefaultConfig()
		plainCfg.Keep = 0
		plain := NewCentralLog(nil, 0, plainCfg)
		coal := NewCentralLog(nil, 0, coalCfg(threshold))
		replayStream(plain, data)
		replayStream(coal, data)
		keys := func(l *CentralLog) []schema.Key {
			store := newMapStore()
			if _, err := Recover(l.Records(), l.Durable(), false, map[string]RowStore{"t": store}); err != nil {
				t.Fatal(err)
			}
			out := make([]schema.Key, 0, len(store.rows))
			for k := range store.rows {
				out = append(out, k)
			}
			slices.Sort(out)
			return out
		}
		if got, want := keys(coal), keys(plain); !slices.Equal(got, want) {
			t.Fatalf("coalesced log (threshold %d) recovered keys %v, plain log %v", threshold, got, want)
		}
	})
}
