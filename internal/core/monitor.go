package core

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"atrapos/internal/partition"
	"atrapos/internal/schema"
	"atrapos/internal/vclock"
)

// DefaultSubPartitions is the number of sub-partitions tracked per partition.
// The paper uses 10 as a good trade-off between the size of the monitoring
// arrays and the number of repartitioning operations needed to adapt to even
// the most drastic workload changes (Section V-D).
const DefaultSubPartitions = 10

// Monitor is the lightweight monitoring mechanism: per-partition arrays of
// sub-partition action costs plus synchronization-point counters. The engine
// records every executed action and synchronization point; a monitoring pass
// seals the current epoch and aggregates it into Stats.
//
// The arrays are double-buffered into two epochs so that monitoring runs
// concurrently with evaluation: workers record into the active epoch while
// the planner thread reads (and clears) the sealed one. Seal flips the
// active epoch with a single atomic store; a worker that loaded the old
// epoch index just before the flip finishes its record into the sealed
// buffer, where it is picked up by the next seal — records are never lost,
// at worst attributed one epoch late.
//
// The space overhead is fixed per partition (it does not depend on the table
// size or the transaction arrival rate), mirroring the paper's design. The
// per-action CPU overhead charged to workers is modeled separately by the
// engine (its monitoringCostPerAction constant).
type Monitor struct {
	subParts int
	active   atomic.Int32
	epochs   [2]*monitorEpoch
	// scratch is the reusable Stats buffer Seal returns. Sealing is
	// single-threaded (the planner goroutine, or a one-shot derivation), and
	// the returned Stats is only valid until the next Seal — which lets the
	// steady state reuse every map and slice instead of reallocating the
	// whole aggregate once per monitoring interval.
	scratch *Stats
}

// monitorEpoch is one buffer of the double-buffered monitoring arrays.
type monitorEpoch struct {
	mu     sync.Mutex
	tables map[string]*tableMonitor
	// syncs is keyed by an order-independent hash of the participant set, so
	// recording a synchronization point in the transaction hot path performs
	// no allocations (the previous string key allocated per record). The
	// participants themselves are stored once, on first sight of a signature.
	syncs map[uint64]*syncAgg
	// syncFree pools syncAgg objects between epochs: Seal drains the syncs
	// map into the pool and RecordSync refills from it, so a steady workload
	// allocates one agg per signature ever, not one per signature per
	// interval.
	syncFree []*syncAgg
	window   vclock.Nanos

	// Transaction-shape counters, recorded with plain atomics (no epoch
	// mutex): the multisite share and action profile drive the
	// adaptive-granularity scorer, and the shared-nothing hot path must be
	// able to record them without taking a lock or allocating.
	txns          atomic.Int64
	multisiteTxns atomic.Int64
	actions       atomic.Int64
	writes        atomic.Int64
	overwrites    atomic.Int64
	syncBytes     atomic.Int64
	// writeKeySlots is a coarse 64-slot histogram of write-key hashes
	// (RecordWriteKey). The hottest slot's share of all recorded writes
	// approximates the workload's hot-key concentration, which prices the
	// write-combining accumulator's expected coalescing ratio in the
	// granularity scorer. Fixed-size and atomic: the hot path neither locks
	// nor allocates to feed it.
	writeKeySlots [64]atomic.Int64
}

type tableMonitor struct {
	bounds []schema.Key // partition lower bounds at registration time
	maxKey schema.Key
	costs  [][]vclock.Nanos // [partition][subpartition]
	counts [][]int64
}

type syncAgg struct {
	participants []PartitionRef
	count        int64
	bytes        int64
}

// NewMonitor creates a Monitor with the given number of sub-partitions per
// partition (0 means DefaultSubPartitions).
func NewMonitor(subParts int) *Monitor {
	if subParts <= 0 {
		subParts = DefaultSubPartitions
	}
	m := &Monitor{subParts: subParts}
	for i := range m.epochs {
		m.epochs[i] = &monitorEpoch{
			tables: make(map[string]*tableMonitor),
			syncs:  make(map[uint64]*syncAgg),
		}
	}
	return m
}

// SubPartitions returns the number of sub-partitions tracked per partition.
func (m *Monitor) SubPartitions() int { return m.subParts }

// Register (re-)initializes the monitoring arrays for a table under the given
// placement bounds and maximum key, in both epochs. It is called when the
// monitor is created and, after a repartitioning, for exactly the tables the
// plan diff touched — unchanged tables keep accumulating into their existing
// arrays, which is what makes repartitioning cost proportional to the diff.
func (m *Monitor) Register(table string, bounds []schema.Key, maxKey schema.Key) {
	for _, e := range m.epochs {
		tm := &tableMonitor{
			bounds: append([]schema.Key(nil), bounds...),
			maxKey: maxKey,
			costs:  make([][]vclock.Nanos, len(bounds)),
			counts: make([][]int64, len(bounds)),
		}
		for i := range tm.costs {
			tm.costs[i] = make([]vclock.Nanos, m.subParts)
			tm.counts[i] = make([]int64, m.subParts)
		}
		e.mu.Lock()
		e.tables[table] = tm
		e.mu.Unlock()
	}
}

// RegisterPlacement registers every table of a placement, using the supplied
// per-table maximum keys.
func (m *Monitor) RegisterPlacement(p *partition.Placement, maxKeys map[string]schema.Key) {
	for name, tp := range p.Tables {
		m.Register(name, tp.Bounds, maxKeys[name])
	}
}

// locate returns the partition and sub-partition of a key.
func (tm *tableMonitor) locate(key schema.Key, subParts int) (int, int) {
	// Partition: last bound <= key.
	p := sort.Search(len(tm.bounds), func(i int) bool { return tm.bounds[i] > key }) - 1
	if p < 0 {
		p = 0
	}
	lo := tm.bounds[p]
	hi := tm.maxKey
	if p+1 < len(tm.bounds) {
		hi = tm.bounds[p+1]
	}
	if hi <= lo {
		return p, 0
	}
	span := uint64(hi-lo) / uint64(subParts)
	if span == 0 {
		span = 1
	}
	sp := int(uint64(key-lo) / span)
	if sp >= subParts {
		sp = subParts - 1
	}
	return p, sp
}

// activeEpoch returns the epoch workers currently record into.
func (m *Monitor) activeEpoch() *monitorEpoch {
	return m.epochs[m.active.Load()&1]
}

// RecordAction records that an action on table touched key and cost cost.
func (m *Monitor) RecordAction(table string, key schema.Key, cost vclock.Nanos) {
	e := m.activeEpoch()
	e.mu.Lock()
	tm, ok := e.tables[table]
	if ok {
		p, sp := tm.locate(key, m.subParts)
		tm.costs[p][sp] += cost
		tm.counts[p][sp]++
	}
	e.mu.Unlock()
}

// RecordSync records one occurrence of a synchronization point between the
// given partitions moving bytes bytes. The participant slice is only read;
// callers may reuse its backing array after the call returns.
func (m *Monitor) RecordSync(participants []PartitionRef, bytes int) {
	if len(participants) == 0 {
		return
	}
	key := syncHash(participants)
	e := m.activeEpoch()
	e.mu.Lock()
	agg, ok := e.syncs[key]
	if !ok {
		if n := len(e.syncFree); n > 0 {
			agg = e.syncFree[n-1]
			e.syncFree = e.syncFree[:n-1]
		} else {
			agg = &syncAgg{}
		}
		agg.participants = append(agg.participants, participants...)
		e.syncs[key] = agg
	}
	agg.count++
	agg.bytes += int64(bytes)
	e.mu.Unlock()
}

// syncHash returns an order-independent hash of a participant set: the sum of
// the per-participant FNV hashes commutes, so permutations of the same set
// collapse to one signature without sorting or allocating.
func syncHash(refs []PartitionRef) uint64 {
	var sum uint64
	for _, r := range refs {
		h := uint64(14695981039346656037)
		for i := 0; i < len(r.Table); i++ {
			h ^= uint64(r.Table[i])
			h *= 1099511628211
		}
		h ^= uint64(r.Partition)
		h *= 1099511628211
		sum += h
	}
	return sum
}

// RecordTxn records the shape of one executed transaction: how many actions
// it ran, how many of them wrote, how many of those writes hit a row the same
// transaction had already written (overwrites — the coalescing scorer's
// self-canceling signal), whether it crossed instance boundaries, and how
// many synchronization-point bytes it exchanged. It is the entire monitoring
// obligation of the shared-nothing hot path — a handful of atomic adds on the
// active epoch, no locks, no allocations.
func (m *Monitor) RecordTxn(actions, writes, overwrites int, multisite bool, syncBytes int) {
	e := m.activeEpoch()
	e.txns.Add(1)
	e.actions.Add(int64(actions))
	e.writes.Add(int64(writes))
	if overwrites > 0 {
		e.overwrites.Add(int64(overwrites))
	}
	if multisite {
		e.multisiteTxns.Add(1)
		e.syncBytes.Add(int64(syncBytes))
	}
}

// RecordWriteKey records one write's key hash into the coarse write-key
// histogram; the sealed epoch's hottest-slot share approximates hot-key
// concentration. One atomic add, no locks.
func (m *Monitor) RecordWriteKey(hash uint64) {
	e := m.activeEpoch()
	e.writeKeySlots[(hash*0x9E3779B97F4A7C15)>>58].Add(1)
}

// AdvanceWindow extends the virtual-time span the active epoch's statistics
// cover. The planner calls it just before Seal, so the window lands in the
// epoch about to be sealed.
func (m *Monitor) AdvanceWindow(d vclock.Nanos) {
	if d <= 0 {
		return
	}
	e := m.activeEpoch()
	e.mu.Lock()
	e.window += d
	e.mu.Unlock()
}

// Seal flips the double buffer and aggregates the epoch that was active
// until now: workers immediately start recording into the other epoch, and
// the sealed arrays are read and cleared without ever blocking recording.
// Records from workers that raced the flip land in the sealed (now idle)
// buffer and are picked up by the next Seal.
//
// The returned Stats is a buffer owned by the Monitor: it is valid until the
// next Seal/Aggregate call, which reuses it. Every caller (the planner
// goroutine, one-shot derivations, ablations) consumes the aggregate before
// sealing again, and the reuse is what keeps steady-state sealing
// allocation-free — monitoring overhead stays flat no matter how many
// planner intervals a run packs in.
func (m *Monitor) Seal() *Stats {
	idx := m.active.Load() & 1
	m.active.Store(1 - idx)
	sealed := m.epochs[idx]
	sealed.mu.Lock()
	defer sealed.mu.Unlock()
	stats := m.scratch
	if stats == nil {
		stats = &Stats{
			Sub:     make(map[string][][]SubLoad, len(sealed.tables)),
			Bounds:  make(map[string][]schema.Key, len(sealed.tables)),
			MaxKeys: make(map[string]schema.Key, len(sealed.tables)),
		}
		m.scratch = stats
	}
	stats.Window = sealed.window
	stats.Txns = sealed.txns.Swap(0)
	stats.MultisiteTxns = sealed.multisiteTxns.Swap(0)
	stats.Actions = sealed.actions.Swap(0)
	stats.Writes = sealed.writes.Swap(0)
	stats.Overwrites = sealed.overwrites.Swap(0)
	stats.SyncBytes = sealed.syncBytes.Swap(0)
	stats.WriteHot = 0
	for i := range sealed.writeKeySlots {
		if n := sealed.writeKeySlots[i].Swap(0); n > stats.WriteHot {
			stats.WriteHot = n
		}
	}
	// A table no longer registered must not linger in the reused maps, or
	// its last interval's loads would leak into every later aggregate.
	for name := range stats.Sub {
		if _, ok := sealed.tables[name]; !ok {
			delete(stats.Sub, name)
			delete(stats.Bounds, name)
			delete(stats.MaxKeys, name)
		}
	}
	for name, tm := range sealed.tables {
		stats.Bounds[name] = append(stats.Bounds[name][:0], tm.bounds...)
		stats.MaxKeys[name] = tm.maxKey
		parts := stats.Sub[name]
		if n := len(tm.costs); cap(parts) < n {
			grown := make([][]SubLoad, n)
			copy(grown, parts[:cap(parts)])
			parts = grown
		} else {
			// Reslicing through cap recovers sub-slices a shrink hid, so a
			// later re-grow reuses their backing arrays too.
			parts = parts[:n]
		}
		for p := range tm.costs {
			subs := parts[p]
			if cap(subs) < m.subParts {
				subs = make([]SubLoad, m.subParts)
			}
			subs = subs[:m.subParts]
			for sp := 0; sp < m.subParts; sp++ {
				subs[sp] = SubLoad{Cost: tm.costs[p][sp], Actions: tm.counts[p][sp]}
				tm.costs[p][sp] = 0
				tm.counts[p][sp] = 0
			}
			parts[p] = subs
		}
		stats.Sub[name] = parts
	}
	syncs := stats.Syncs[:0]
	for key, agg := range sealed.syncs {
		avgBytes := int64(0)
		if agg.count > 0 {
			avgBytes = agg.bytes / agg.count
		}
		// Participants are deep-copied into the buffer a previous seal left
		// at this index (aggs recycle into the pool below, so handing their
		// slices out directly would let the next interval clobber them).
		var buf []PartitionRef
		if n := len(syncs); n < cap(syncs) {
			buf = syncs[:n+1][n].Participants[:0]
		}
		syncs = append(syncs, SyncStat{
			Participants: append(buf, agg.participants...),
			Count:        agg.count,
			Bytes:        avgBytes,
		})
		agg.participants = agg.participants[:0]
		agg.count, agg.bytes = 0, 0
		sealed.syncFree = append(sealed.syncFree, agg)
		delete(sealed.syncs, key)
	}
	if len(syncs) > 1 {
		sort.Slice(syncs, func(i, j int) bool {
			return syncKey(syncs[i].Participants) < syncKey(syncs[j].Participants)
		})
	}
	stats.Syncs = syncs
	sealed.window = 0
	return stats
}

// Aggregate returns the statistics collected since the last Aggregate (or
// since creation) and clears the arrays. It is Seal under the name the
// single-threaded callers (static placement derivation, ablations) use, and
// shares its contract: the returned Stats is valid until the next call.
func (m *Monitor) Aggregate() *Stats { return m.Seal() }

func syncKey(refs []PartitionRef) string {
	parts := make([]string, len(refs))
	for i, r := range refs {
		parts[i] = r.Table + "#" + itoa(r.Partition)
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
