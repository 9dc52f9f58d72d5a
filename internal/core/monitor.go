package core

import (
	"slices"
	"sort"
	"strings"

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
// A Monitor is single-owner: one epoch of plain fields, no mutex, no atomics.
// It belongs to one engine's adaptive state (or to a one-shot derivation), and
// the priced run records into it and seals it on its one goroutine — the
// planner runs inline at a boundary of the transaction stream — so no record
// can race a seal, and Seal aggregates the epoch and resets it in place.
// Executed mode records nothing.
//
// The space overhead is fixed per partition (it does not depend on the table
// size or the transaction arrival rate), mirroring the paper's design. The
// per-action CPU overhead charged to workers is modeled separately by the
// engine (its monitoringCostPerAction constant).
type Monitor struct {
	subParts int
	// tables holds the monitoring arrays by dense table index: a table's
	// first Register gives it the next index, and index maps its name to it.
	tables []*tableMonitor
	index  map[string]int
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

	// Transaction-shape counters (RecordTxn): the multisite share and action
	// profile drive the adaptive-granularity scorer.
	txns, multisiteTxns, actions, writes, overwrites, syncBytes int64
	// writeKeySlots is a coarse 64-slot histogram of write-key hashes
	// (RecordWriteKey). The hottest slot's share of all recorded writes
	// approximates the workload's hot-key concentration, which prices the
	// write-combining accumulator's expected coalescing ratio in the
	// granularity scorer. Fixed-size: the hot path does not allocate to feed
	// it.
	writeKeySlots [64]int64

	// scratch is the reusable Stats buffer Seal returns: the returned Stats
	// is only valid until the next Seal, which lets the steady state reuse
	// every map and slice instead of reallocating the whole aggregate once
	// per monitoring interval.
	scratch *Stats
}

type tableMonitor struct {
	name   string
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
	return &Monitor{
		subParts: subParts,
		index:    make(map[string]int),
		syncs:    make(map[uint64]*syncAgg),
	}
}

// SubPartitions returns the number of sub-partitions tracked per partition.
func (m *Monitor) SubPartitions() int { return m.subParts }

// Register (re-)initializes the monitoring arrays for a table under the given
// placement bounds and maximum key. It is called when the monitor is created
// and, after a repartitioning, for exactly the tables the plan diff touched —
// unchanged tables keep accumulating into their existing arrays, which is
// what makes repartitioning cost proportional to the diff. A table keeps the
// dense index its first registration gave it (RecordIn takes that index);
// the engine registers its tables in workload order, so the index is its own.
func (m *Monitor) Register(table string, bounds []schema.Key, maxKey schema.Key) {
	tm := &tableMonitor{
		name:   table,
		bounds: append([]schema.Key(nil), bounds...),
		maxKey: maxKey,
		costs:  make([][]vclock.Nanos, len(bounds)),
		counts: make([][]int64, len(bounds)),
	}
	for i := range tm.costs {
		tm.costs[i] = make([]vclock.Nanos, m.subParts)
		tm.counts[i] = make([]int64, m.subParts)
	}
	if ti, ok := m.index[table]; ok {
		m.tables[ti] = tm
		return
	}
	m.index[table] = len(m.tables)
	m.tables = append(m.tables, tm)
}

// Bounds returns a copy of the partition lower bounds table was last
// registered with, or nil for a table never registered.
func (m *Monitor) Bounds(table string) []schema.Key {
	if ti, ok := m.index[table]; ok {
		return append([]schema.Key(nil), m.tables[ti].bounds...)
	}
	return nil
}

// RegisterPlacement registers every table of a placement, using the supplied
// per-table maximum keys.
func (m *Monitor) RegisterPlacement(p *partition.Placement, maxKeys map[string]schema.Key) {
	for name, tp := range p.Tables {
		m.Register(name, tp.Bounds, maxKeys[name])
	}
}

// sub returns the sub-partition of key inside partition p.
func (tm *tableMonitor) sub(p int, key schema.Key, subParts int) int {
	lo := tm.bounds[p]
	hi := tm.maxKey
	if p+1 < len(tm.bounds) {
		hi = tm.bounds[p+1]
	}
	if hi <= lo {
		return 0
	}
	span := uint64(hi-lo) / uint64(subParts)
	if span == 0 {
		span = 1
	}
	sp := int(uint64(key-lo) / span)
	if sp >= subParts {
		sp = subParts - 1
	}
	return sp
}

// RecordAction records that an action on table touched key and cost cost.
func (m *Monitor) RecordAction(table string, key schema.Key, cost vclock.Nanos) {
	if ti, ok := m.index[table]; ok {
		// Partition: last bound <= key.
		bounds := m.tables[ti].bounds
		p := max(0, sort.Search(len(bounds), func(i int) bool { return bounds[i] > key })-1)
		m.RecordIn(ti, p, key, cost)
	}
}

// RecordIn is RecordAction for a caller that has resolved the action's
// dense table index ti and its partition p under the registered bounds.
func (m *Monitor) RecordIn(ti, p int, key schema.Key, cost vclock.Nanos) {
	tm := m.tables[ti]
	sp := tm.sub(p, key, m.subParts)
	tm.costs[p][sp] += cost
	tm.counts[p][sp]++
}

// RecordSync records one occurrence of a synchronization point between the
// given partitions moving bytes bytes. The participant slice is only read;
// callers may reuse its backing array after the call returns.
func (m *Monitor) RecordSync(participants []PartitionRef, bytes int) {
	if len(participants) == 0 {
		return
	}
	key := syncHash(participants)
	agg, ok := m.syncs[key]
	if !ok {
		if n := len(m.syncFree); n > 0 {
			agg = m.syncFree[n-1]
			m.syncFree = m.syncFree[:n-1]
		} else {
			agg = &syncAgg{}
		}
		agg.participants = append(agg.participants, participants...)
		m.syncs[key] = agg
	}
	agg.count++
	agg.bytes += int64(bytes)
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
// obligation of the shared-nothing hot path — a handful of adds, no
// allocations.
func (m *Monitor) RecordTxn(actions, writes, overwrites int, multisite bool, syncBytes int) {
	m.txns++
	m.actions += int64(actions)
	m.writes += int64(writes)
	if overwrites > 0 {
		m.overwrites += int64(overwrites)
	}
	if multisite {
		m.multisiteTxns++
		m.syncBytes += int64(syncBytes)
	}
}

// RecordWriteKey records one write's key hash into the coarse write-key
// histogram; the sealed epoch's hottest-slot share approximates hot-key
// concentration. One add.
func (m *Monitor) RecordWriteKey(hash uint64) {
	m.writeKeySlots[(hash*0x9E3779B97F4A7C15)>>58]++
}

// AdvanceWindow extends the virtual-time span the epoch's statistics cover.
// The planner calls it just before Seal.
func (m *Monitor) AdvanceWindow(d vclock.Nanos) {
	if d > 0 {
		m.window += d
	}
}

// Seal aggregates the epoch recorded since the previous Seal (or since
// creation) and resets it: the arrays, counters and window start the next
// epoch at zero.
//
// The returned Stats is a buffer owned by the Monitor: it is valid until the
// next Seal call, which reuses it. Every caller (the inline planner,
// one-shot derivations, ablations) consumes the aggregate before sealing
// again, and the reuse is what keeps steady-state sealing allocation-free —
// monitoring overhead stays flat no matter how many planner intervals a run
// packs in.
func (m *Monitor) Seal() *Stats {
	stats := m.scratch
	if stats == nil {
		stats = &Stats{
			Sub:     make(map[string][][]SubLoad, len(m.tables)),
			Bounds:  make(map[string][]schema.Key, len(m.tables)),
			MaxKeys: make(map[string]schema.Key, len(m.tables)),
		}
		m.scratch = stats
	}
	stats.Window, m.window = m.window, 0
	stats.Txns, m.txns = m.txns, 0
	stats.MultisiteTxns, m.multisiteTxns = m.multisiteTxns, 0
	stats.Actions, m.actions = m.actions, 0
	stats.Writes, m.writes = m.writes, 0
	stats.Overwrites, m.overwrites = m.overwrites, 0
	stats.SyncBytes, m.syncBytes = m.syncBytes, 0
	stats.WriteHot = slices.Max(m.writeKeySlots[:])
	clear(m.writeKeySlots[:])
	for _, tm := range m.tables {
		name := tm.name
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
	for key, agg := range m.syncs {
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
		m.syncFree = append(m.syncFree, agg)
		delete(m.syncs, key)
	}
	if len(syncs) > 1 {
		sort.Slice(syncs, func(i, j int) bool {
			return syncKey(syncs[i].Participants) < syncKey(syncs[j].Participants)
		})
	}
	stats.Syncs = syncs
	return stats
}

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
