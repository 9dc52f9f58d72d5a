package backend

import (
	"fmt"
	"sort"

	"atrapos/internal/numa"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/wal"
)

// HashBackend is the executed storage engine: a Bitcask-style hash engine
// with one shard per hardware island. Each shard holds a per-table
// open-addressing index owned by its island's executor (single-owner, so the
// probe path needs no mutex and no RWMutex), and each island has an
// append-only value log — a wal.CentralLog, so the write-combining coalescer
// batches committed writes into net-delta flush epochs exactly as the priced
// engine's island logs do. The in-memory indexes are the crash-volatile half:
// CrashAndRecover drops them and rebuilds them with wal.Recover over the
// island value logs.
//
// Shard i is island i's: the placement routes every key to its island, so a
// shard index is an island index and nothing hashes keys to shards.
type HashBackend struct {
	tables  []string
	islands int
	homes   []topology.SocketID
	logCfg  wal.Config

	shards []hashShard
	logs   []*wal.CentralLog

	execs []*Executor

	// loadTxn numbers bulk-load transactions from the top of the id space so
	// they can never collide with the engine's per-run txn ids.
	loadTxn uint64
}

// hashShard is one shard: a per-table open-addressing index.
type hashShard struct {
	idx []openIndex
}

// HashConfig sizes a HashBackend.
type HashConfig struct {
	// Islands is the number of islands (= shards = executors = value logs).
	Islands int
	// Tables are the table names, indexed by table id (TableSpecs order).
	Tables []string
	// Homes are the per-island log home sockets (island first-core sockets).
	Homes []topology.SocketID
	// Log tunes the island value logs. Keep must be 0 for crash drills (any
	// other value retains no records to replay); CoalesceRecords batches
	// physical flushes through the wal coalescer. Log.Device is ignored: a
	// priced device model is single-owner, and every executor would flush
	// into the same one.
	Log wal.Config
	// Domain is ignored: the value logs are built without a priced tail
	// (wal.NewCentralLog with a nil domain), so an executed run writes no
	// cache-line or traffic counters. The field stays only because the frozen
	// benchmark/replay.go sets it (ROADMAP, "For the next benchmark-archetype
	// PR").
	Domain *numa.Domain
}

// NewHash builds an empty hash backend.
func NewHash(cfg HashConfig) (*HashBackend, error) {
	if cfg.Islands < 1 {
		return nil, fmt.Errorf("backend: need at least one island, got %d", cfg.Islands)
	}
	if len(cfg.Tables) == 0 {
		return nil, fmt.Errorf("backend: need at least one table")
	}
	b := &HashBackend{
		tables:  append([]string(nil), cfg.Tables...),
		islands: cfg.Islands,
		homes:   append([]topology.SocketID(nil), cfg.Homes...),
		logCfg:  cfg.Log,
		loadTxn: ^uint64(0) - 1<<20,
	}
	b.logCfg.Device = nil
	// The logs are unpriced: no cache-line tail (see HashConfig.Domain) and no
	// device. Island i's log is appended to only by executor i, its owner, so
	// the wal's single-owner argument holds for it too.
	b.shards = make([]hashShard, b.islands)
	for s := range b.shards {
		b.shards[s].idx = make([]openIndex, len(b.tables))
	}
	b.logs = make([]*wal.CentralLog, b.islands)
	for i := range b.logs {
		b.logs[i] = wal.NewCentralLog(nil, b.home(i), b.logCfg)
	}
	return b, nil
}

func (b *HashBackend) home(island int) topology.SocketID {
	if island < 0 || island >= len(b.homes) {
		return 0
	}
	return b.homes[island]
}

// Islands returns the island (executor / value-log) count.
func (b *HashBackend) Islands() int { return b.islands }

// Tables returns the registered table names in table-id order.
func (b *HashBackend) Tables() []string { return b.tables }

// Owner returns the island owning a shard: the shard's own index.
func (b *HashBackend) Owner(shard int) int { return shard }

// Log returns island i's value log.
func (b *HashBackend) Log(island int) *wal.CentralLog {
	if island < 0 || island >= len(b.logs) {
		return b.logs[0]
	}
	return b.logs[island]
}

// Get returns the value stored under key in the shard's table, if any: one
// open-addressing probe, no locks — the shard is owned by exactly one executor.
func (b *HashBackend) Get(shard, table int, key schema.Key) (uint64, bool) {
	return b.shards[shard].idx[table].get(key)
}

// Put stores val under key, inserting or overwriting: the index takes the new
// value and the write is appended to the owning island's value log on behalf
// of txn (staged by the coalescer until the transaction's commit record
// arrives).
func (b *HashBackend) Put(shard, table int, key schema.Key, txn, val uint64) {
	inserted := b.shards[shard].idx[table].put(key, val)
	typ := wal.Update
	if inserted {
		typ = wal.Insert
	}
	b.logs[shard].Append(b.home(shard), wal.Record{
		Txn: txn, Type: typ, Table: b.tables[table], Key: key, Size: 32,
	})
}

// Increment adds one to key's value on behalf of txn (a missing key counts
// from zero) and returns the new value: one probe to read, one to write back,
// one value-log append. Called by the shard's owner only, like every other
// operation, which is what makes the read-modify-write atomic.
func (b *HashBackend) Increment(shard, table int, key schema.Key, txn uint64) uint64 {
	v, _ := b.Get(shard, table, key)
	b.Put(shard, table, key, txn, v+1)
	return v + 1
}

// Delete removes key on behalf of txn and reports whether it was present: the
// key is tombstoned in the index and a delete record is appended to the island
// value log.
func (b *HashBackend) Delete(shard, table int, key schema.Key, txn uint64) bool {
	if !b.shards[shard].idx[table].del(key) {
		return false
	}
	b.logs[shard].Append(b.home(shard), wal.Record{
		Txn: txn, Type: wal.Delete, Table: b.tables[table], Key: key, Size: 24,
	})
	return true
}

// Scan visits the shard's live keys of one table in unspecified order until fn
// returns false; it returns the number of keys visited.
func (b *HashBackend) Scan(shard, table int, fn func(schema.Key, uint64) bool) int {
	return b.shards[shard].idx[table].scan(fn)
}

// Commit appends txn's commit record to island's value log (folding its
// staged writes into the coalescer's net-delta buffer) and runs group commit.
// now is the committer's wall-clock offset, which drives the coalescer's
// max-age deadline.
func (b *HashBackend) Commit(island int, txn uint64, now vclock.Nanos) {
	l := b.Log(island)
	lsn, _ := l.Append(b.home(island), wal.Record{Txn: txn, Type: wal.Commit, Size: 16})
	l.Flush(b.home(island), lsn, now)
}

// Load bulk-inserts a key directly into its shard's index and value log under
// the backend's load transaction; FinishLoad commits the load on every island
// so recovery treats loaded rows as winners.
func (b *HashBackend) Load(shard, table int, key schema.Key, val uint64) {
	b.Put(shard, table, key, b.loadTxn, val)
}

// FinishLoad commits the bulk load on every island.
func (b *HashBackend) FinishLoad(now vclock.Nanos) {
	for i := range b.logs {
		b.Commit(i, b.loadTxn, now)
	}
	b.loadTxn++
}

// Drain forces every island value log's coalescing accumulator out and makes
// everything appended so far durable; see wal.CentralLog.Drain.
func (b *HashBackend) Drain(now vclock.Nanos) {
	for _, l := range b.logs {
		l.Drain(now)
	}
}

// Stats sums the island value logs' activity counters.
func (b *HashBackend) Stats() wal.Stats {
	var s wal.Stats
	for _, l := range b.logs {
		s = s.Add(l.Stats())
	}
	return s
}

// CrashAndRecover simulates an instance crash and restart: every in-memory
// index is dropped (the crash-volatile state) and rebuilt by wal.Recover over
// each island's value log, Bitcask's startup scan. The logs are drained first
// — the drill models a crash after the last commit became durable, mirroring
// the priced engine's crash drill, which drains before reading the records.
// Recovery redoes only winner transactions (those with a commit record on the
// log, which with coalescing is also exactly what survives in the log as net
// deltas). The records carry no value payload, so a recovered entry
// restarts at its key, as a loaded one does. It returns an error, before
// dropping any index, when an island log discarded a record (Log.Keep is not
// 0): recovery from a partial log would silently lose keys.
func (b *HashBackend) CrashAndRecover(now vclock.Nanos) error {
	b.Drain(now)
	for island, l := range b.logs {
		if n := l.Discarded(); n > 0 {
			return fmt.Errorf("backend: crash recovery needs every log record, but island %d's value log discarded %d (Log.Keep=%d)", island, n, b.logCfg.Keep)
		}
	}
	for island, l := range b.logs {
		idx := make([]openIndex, len(b.tables))
		b.shards[island].idx = idx
		stores := make(map[string]wal.RowStore, len(b.tables))
		for ti, name := range b.tables {
			stores[name] = indexStore{&idx[ti]}
		}
		// Recover fails only without a table map.
		_, _ = wal.Recover(l.Records(), l.Durable(), false, stores)
	}
	return nil
}

// indexStore adapts one shard's table index to wal.RowStore.
type indexStore struct{ idx *openIndex }

func (s indexStore) ApplyInsert(key schema.Key, _ schema.Row) { s.idx.put(key, uint64(key)) }
func (s indexStore) ApplyDelete(key schema.Key)               { s.idx.del(key) }

// TableKeySets returns the live keys of every table, sorted, aggregated
// across shards — the equivalence check of the crash drill.
func (b *HashBackend) TableKeySets() map[string][]schema.Key {
	out := make(map[string][]schema.Key, len(b.tables))
	for ti, name := range b.tables {
		var keys []schema.Key
		for s := range b.shards {
			b.shards[s].idx[ti].scan(func(k schema.Key, _ uint64) bool {
				keys = append(keys, k)
				return true
			})
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		out[name] = keys
	}
	return out
}
