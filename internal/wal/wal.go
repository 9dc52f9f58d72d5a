// Package wal implements the write-ahead log of the storage manager. The
// centralized log follows the Aether design used by Shore-MT: transactions
// append records to a single log buffer whose tail is a heavily contended
// cache line, and commits are made durable with group commit. Shared-nothing
// configurations use one log per instance, so every append stays island-local;
// the centralized shared-everything configuration shares one log across the
// whole machine, which is one of the contention points the paper measures.
package wal

import (
	"fmt"
	"math/bits"
	"slices"

	"atrapos/internal/device"
	"atrapos/internal/numa"
	"atrapos/internal/obs"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
)

// LSN is a log sequence number.
type LSN uint64

// RecordType labels the kind of log record.
type RecordType int

const (
	// Update is a regular redo/undo record for a row modification.
	Update RecordType = iota
	// Insert records a row insertion.
	Insert
	// Delete records a row deletion.
	Delete
	// Commit records a transaction commit.
	Commit
	// Abort records a transaction rollback.
	Abort
	// Prepare is the 2PC prepare record written by distributed transactions.
	Prepare
	// EndOfDistributed is the 2PC end record written by the coordinator.
	EndOfDistributed
	// NoopWrite records a write intent that found no row to modify (an update
	// or delete of a missing key). The engine charges the append like any
	// other write record — the cost model prices write intents, and a miss is
	// only discovered inside the storage layer — but redo must not
	// re-establish a key the action never touched, so recovery skips it.
	NoopWrite
)

// String implements fmt.Stringer.
func (t RecordType) String() string {
	switch t {
	case Update:
		return "update"
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	case Commit:
		return "commit"
	case Abort:
		return "abort"
	case Prepare:
		return "prepare"
	case EndOfDistributed:
		return "end-distributed"
	case NoopWrite:
		return "noop-write"
	default:
		return fmt.Sprintf("RecordType(%d)", int(t))
	}
}

// Record is one log record.
type Record struct {
	LSN   LSN
	Txn   uint64
	Type  RecordType
	Table string
	Key   schema.Key
	Size  int
}

// The group-commit price every log charges. The island-level scorer
// (core.GranularityModel) prices candidate levels with the same constants.
const (
	// PerByteCost is the cost of copying one byte into the log buffer.
	PerByteCost numa.Cost = 1
	// FlushCost is the device latency of one group-commit flush when no
	// Device is bound; with a Device the flush pays the device's service and
	// queueing cost instead.
	FlushCost numa.Cost = 12000
	// GroupSize is the number of commits amortized by one flush.
	GroupSize = 8
)

// Config tunes a log's retention, device binding and coalescing.
type Config struct {
	// Keep selects retention, all or nothing: zero keeps every physical
	// record in memory for crash recovery (Records); any other value keeps
	// none and only counts them (Discarded). Recovery from a partial log
	// would be silently wrong, so there is no bounded middle.
	Keep int
	// Device optionally binds the log to a modeled log device: full flushes
	// then pay the device's queueing model (service latency, per-byte
	// bandwidth, waits behind queued flushes) instead of the flat FlushCost.
	// Nil reproduces the device-blind cost model exactly.
	Device *device.Device
	// CoalesceRecords enables the write-combining accumulator when positive:
	// write records of committing transactions land in a (table, key)-keyed
	// buffer in front of the log where overwrites and self-canceling pairs
	// collapse to net deltas, and a physical flush is issued once the
	// accumulator holds this many net entries instead of every GroupSize-th
	// commit. Commits between physical
	// flushes ride along as before but are not acknowledged as durable until
	// the flush epoch holding their last record is written out. Zero disables
	// coalescing and reproduces the record-per-write cost model bit for bit.
	CoalesceRecords int
}

// DefaultConfig returns the log configuration used by the evaluation:
// memory-mapped log device with group commit, retaining no records. A crash
// drill switches its logs to full retention (Keep 0) before the first append.
func DefaultConfig() Config {
	return Config{Keep: -1}
}

// CentralLog is an Aether-style centralized log. The buffer tail is modeled
// as a cache line; every append performs one atomic on it (the LSN/space
// reservation), so appends from many sockets pay coherence traffic.
//
// A CentralLog is single-owner: plain fields, no mutex. Appends from many
// sockets are priced on the tail line, never enacted. A priced log belongs to
// one engine — its central log, or one island's log, which an online
// re-wiring may carry into the next wiring between transactions — and the
// priced run is one goroutine. An executed value log (backend.HashBackend)
// belongs to one island and is appended to only by that island's executor;
// the engine loads, drains and reads it only while no executor runs.
type CentralLog struct {
	cfg  Config
	tail *numa.CacheLine

	next    LSN
	durable LSN
	pending int
	// pendingBytes accumulates the record bytes appended since the last full
	// flush; a device-bound flush writes them out and pays their bandwidth.
	pendingBytes int
	// kept holds every physical record, oldest first, when Keep is 0 (crash
	// recovery replays them); with any other Keep it stays empty, so the
	// append hot path never allocates.
	kept []Record

	// coal is the write-combining accumulator (Config.CoalesceRecords > 0);
	// nil leaves every path below on the legacy record-per-write arithmetic.
	coal *coalescer

	// trace is the island span ring the log emits physical-flush and
	// coalesce-fold spans into; nil (the default) records nothing. traceSite
	// stamps the spans with the owning island; traceFoldMark is the coalesced
	// counter at the last emitted fold span, so each fold span reports only
	// the records folded since the previous physical flush.
	trace         *obs.Ring
	traceSite     int32
	traceFoldMark int64

	appends     int64
	logical     int64
	physRecords int64
	physFlushes int64
	rideAlongs  int64
	physBytes   int64

	// The trailing pad keeps the next log off this one's last cache line.
	// Executed value logs are allocated back to back, one per executor:
	// without it, executor i's per-record counters above shared a line with
	// executor i+1's cfg, read on every append (TestCentralLogPadded).
	_ [64]byte
}

// coalescer is the per-log write-combining accumulator. Write records stage
// per transaction first and fold into the shared (table, key)-keyed net-delta
// buffer only when their transaction's outcome record (Commit or
// EndOfDistributed) is appended to this log — so every accumulator entry
// belongs to a winner and cross-transaction merging can never launder a loser
// record into a committed one. Staged records of transactions that never log
// an outcome here (aborts, in-flight work at a drain) are emitted to the log
// verbatim and unmerged, where recovery classifies them by the absence of a
// commit record exactly as it would have without coalescing.
type coalescer struct {
	// open holds the staged writes of the transactions without an outcome
	// here, in order of their first LSN: one at a time plus losers on a priced
	// log, the few its executor interleaves on an executed one, so a scan from
	// the end finds the writer. A folded transaction's slice is parked past
	// the end for the next transaction to open.
	open []staged

	// entries is the committed net-delta buffer in fold order (insertion
	// order, so flushes drain deterministically); bytes is their summed Size.
	entries []Record
	bytes   int
	// slots indexes entries by (table, key): a power-of-two, linearly probed
	// array whose slots count only when stamped with the open flush epoch's
	// stamp, so a physical flush empties the index by bumping the stamp.
	slots []slot
	stamp uint8
	shift uint8

	// coalesced counts logical records absorbed into an existing entry.
	coalesced int64
}

// staged is one open transaction's write records, oldest first.
type staged struct {
	txn  uint64
	recs []Record
}

// slot is one index slot: entries[pos], if stamp is the open epoch's.
type slot struct {
	stamp uint8
	pos   int32
}

func newCoalescer() *coalescer {
	return &coalescer{stamp: 1}
}

// find returns the index of txn's open entry, or -1.
func (c *coalescer) find(txn uint64) int {
	for i := len(c.open) - 1; i >= 0; i-- {
		if c.open[i].txn == txn {
			return i
		}
	}
	return -1
}

// stage adds a write record to its transaction's open entry, opening one on
// the transaction's first write.
func (c *coalescer) stage(r Record) {
	i := c.find(r.Txn)
	if i < 0 {
		i = len(c.open)
		c.open = slices.Grow(c.open, 1)[:i+1]
		c.open[i].txn, c.open[i].recs = r.Txn, c.open[i].recs[:0]
	}
	c.open[i].recs = append(c.open[i].recs, r)
}

// fold merges the staged records of a transaction that just logged its
// outcome into the net-delta buffer, oldest first, so intra-transaction
// self-canceling pairs collapse on the spot.
func (c *coalescer) fold(txn uint64) {
	i := c.find(txn)
	if i < 0 {
		return
	}
	s := c.open[i]
	for j := range s.recs {
		c.merge(&s.recs[j])
	}
	last := len(c.open) - 1
	copy(c.open[i:], c.open[i+1:])
	c.open[last] = s
	c.open = c.open[:last]
}

// merge applies one committed write record to the net-delta buffer. The entry
// keeps the latest contributor's transaction and LSN; the record type follows
// the newest real write (an insert superseded by a delete nets to a delete
// tombstone — redo of a missing-key delete is a no-op, so emitting the
// tombstone is always safe — and vice versa), while a NoopWrite is absorbed
// without changing what redo will re-establish.
func (c *coalescer) merge(r *Record) {
	if 2*len(c.entries) >= len(c.slots) {
		c.grow()
	}
	s := c.slotFor(r)
	if s.stamp != c.stamp {
		*s = slot{stamp: c.stamp, pos: int32(len(c.entries))}
		c.entries = append(c.entries, *r)
		c.bytes += r.Size
		return
	}
	e := &c.entries[s.pos]
	c.coalesced++
	e.Txn = r.Txn
	e.LSN = r.LSN
	if r.Type != NoopWrite {
		c.bytes += r.Size - e.Size
		e.Type = r.Type
		e.Size = r.Size
	}
}

// slotFor probes from r's key (Fibonacci hashing) for the slot of r's row:
// its entry's, or the free slot that ends the probe.
func (c *coalescer) slotFor(r *Record) *slot {
	mask := len(c.slots) - 1
	for h := int(uint64(r.Key) * 0x9E3779B97F4A7C15 >> c.shift); ; h = (h + 1) & mask {
		s := &c.slots[h]
		if s.stamp != c.stamp {
			return s
		}
		if e := &c.entries[s.pos]; e.Key == r.Key && e.Table == r.Table {
			return s
		}
	}
}

// grow doubles the index, to at least 16 slots, and re-places the entries.
func (c *coalescer) grow() {
	c.slots = make([]slot, max(16, 2*len(c.slots)))
	c.shift = uint8(64 - bits.TrailingZeros(uint(len(c.slots))))
	for i := range c.entries {
		*c.slotFor(&c.entries[i]) = slot{stamp: c.stamp, pos: int32(i)}
	}
}

// isWriteType reports whether t is a row write record (as opposed to a
// transaction-control record).
func isWriteType(t RecordType) bool {
	switch t {
	case Update, Insert, Delete, NoopWrite:
		return true
	}
	return false
}

// NewCentralLog creates a centralized log homed on socket home. A nil domain
// builds the log without a priced tail: appends and flushes charge no
// cache-line cost and record no traffic (the executed hash backend's value
// logs, which measure wall time); everything else — LSNs, group commit, the
// coalescer, retention, Stats — is the same code.
func NewCentralLog(d *numa.Domain, home topology.SocketID, cfg Config) *CentralLog {
	l := &CentralLog{cfg: cfg, next: 1}
	if d != nil {
		l.tail = numa.NewCacheLine(d, home)
	}
	if cfg.CoalesceRecords > 0 {
		l.coal = newCoalescer()
	}
	return l
}

// emit counts rec as a physical record and keeps it when the log retains
// records. Callers have already assigned rec.LSN.
func (l *CentralLog) emit(rec Record) {
	l.physRecords++
	if l.cfg.Keep == 0 {
		l.kept = append(l.kept, rec)
	}
}

// Append adds a record on behalf of a worker on socket s and returns the
// assigned LSN and the virtual cost of the insert. With coalescing enabled,
// write records stage per transaction — they reach the accumulator only when
// their transaction's outcome record arrives — while control records go
// straight to the log so recovery's winner determination sees them at any
// crash point. Every append
// pays the same tail reservation and copy cost either way: coalescing saves
// physical flush work, not the logical logging work.
func (l *CentralLog) Append(s topology.SocketID, rec Record) (LSN, numa.Cost) {
	cost := l.tail.Atomic(s) + numa.Cost(rec.Size)*PerByteCost
	rec.LSN = l.next
	l.next++
	l.appends++
	if isWriteType(rec.Type) {
		l.logical++
	}
	if l.coal == nil {
		l.pendingBytes += rec.Size
		l.emit(rec)
		return rec.LSN, cost
	}
	if isWriteType(rec.Type) {
		l.coal.stage(rec)
		return rec.LSN, cost
	}
	// A control record: fold the transaction's staged writes into the
	// net-delta buffer when this record makes it a recovery winner, then log
	// the control record itself immediately.
	if rec.Type == Commit || rec.Type == EndOfDistributed {
		l.coal.fold(rec.Txn)
	}
	l.pendingBytes += rec.Size
	l.emit(rec)
	return rec.LSN, cost
}

// Flush makes everything up to lsn durable and returns the cost. Group
// commit: a full flush is charged only once per GroupSize committing
// transactions; the other commits ride along (see rideAlong). With a device bound, the
// full flush pays the device's queueing model (the flush is issued at the
// committer's virtual time now and waits behind the flushes queued ahead of
// it) and writes out the bytes pending since the previous full flush;
// ride-alongs pay the amortized device service only — they do not occupy a
// device channel.
func (l *CentralLog) Flush(s topology.SocketID, lsn LSN, now vclock.Nanos) numa.Cost {
	cost := l.tail.Touch(s)
	if lsn <= l.durable {
		return cost
	}
	if l.coal != nil {
		if len(l.coal.entries) >= l.cfg.CoalesceRecords {
			cost += l.physicalFlush(now, false)
			l.durable = l.next - 1
		} else {
			// Ride along: the commit's net deltas stay in the open flush
			// epoch, so the transaction is *not* acknowledged as durable yet
			// — durability arrives with the epoch's physical flush.
			cost += l.rideAlong()
		}
		return cost
	}
	if l.pending++; l.pending >= GroupSize {
		cost += l.flush(now, l.pendingBytes)
	} else {
		cost += l.rideAlong()
	}
	if lsn > l.durable {
		l.durable = lsn
	}
	return cost
}

// flush is the bill of one full group-commit flush issued at now that writes
// out bytes: the bound device's queueing model, or the flat FlushCost. It
// writes out everything pending, with or without a device: a log that runs
// device-blind for a while and is later re-bound must not bill its whole
// append history to the first device flush.
func (l *CentralLog) flush(now vclock.Nanos, bytes int) numa.Cost {
	l.pending, l.pendingBytes = 0, 0
	l.physFlushes++
	l.physBytes += int64(bytes)
	cost := FlushCost
	if l.cfg.Device != nil {
		cost = l.cfg.Device.Flush(now, bytes)
	}
	l.trace.Record(obs.Span{Start: now, Dur: vclock.Nanos(cost),
		Kind: obs.KindPhysFlush, Site: l.traceSite, Arg: int64(bytes)})
	return cost
}

// rideAlong is the bill of a commit that rides on a group commit: a
// GroupSize-th of the flush latency (waiting for the group to form), the
// bound device's unqueued service or the flat FlushCost. A ride-along does
// not occupy a device channel.
func (l *CentralLog) rideAlong() numa.Cost {
	l.rideAlongs++
	if l.cfg.Device != nil {
		return l.cfg.Device.Service(0) / GroupSize
	}
	return FlushCost / GroupSize
}

// physicalFlush writes the accumulator out: net-delta entries are
// emitted to the log in fold order and the device (or flat flush
// cost) is billed for the physical bytes — buffered control bytes plus the
// collapsed entry bytes, not the logical append volume. When leftovers is
// true (drains), the staged records of transactions that never logged an
// outcome here are emitted verbatim too, by first-record LSN (the open list's
// order), so a crash drill's log holds exactly the information the
// uncoalesced log would: recovery classifies them by the absence of an
// outcome record.
func (l *CentralLog) physicalFlush(now vclock.Nanos, leftovers bool) numa.Cost {
	c := l.coal
	bytes := l.pendingBytes + c.bytes
	for i := range c.entries {
		l.emit(c.entries[i])
	}
	c.entries, c.bytes = c.entries[:0], 0
	if c.stamp++; c.stamp == 0 { // a wrapped stamp would revive stale slots
		clear(c.slots)
		c.stamp = 1
	}
	if leftovers {
		for _, s := range c.open {
			for i := range s.recs {
				bytes += s.recs[i].Size
				l.emit(s.recs[i])
			}
		}
		c.open = c.open[:0]
	}
	if folded := c.coalesced - l.traceFoldMark; l.trace != nil && folded > 0 {
		l.trace.Record(obs.Span{Start: now, Kind: obs.KindCoalesceFold,
			Site: l.traceSite, Arg: folded})
		l.traceFoldMark = c.coalesced
	}
	return l.flush(now, bytes)
}

// Drain forces the write-combining accumulator out: committed net deltas and
// the staged records of transactions still in flight hit the log, and
// everything appended so far becomes durable (the final-flush guarantee).
// The engine calls it before an island re-wiring carries logs into a new
// island set, before a crash drill reads the records, and at run end. It is
// a no-op on a log without coalescing or with nothing buffered; the returned
// cost is the physical flush the drain issued.
func (l *CentralLog) Drain(now vclock.Nanos) numa.Cost {
	if l.coal == nil {
		return 0
	}
	c := l.coal
	if len(c.entries) == 0 && len(c.open) == 0 && l.pendingBytes == 0 && l.durable == l.next-1 {
		return 0
	}
	cost := l.physicalFlush(now, true)
	l.durable = l.next - 1
	return cost
}

// Device returns the log device the log is bound to, or nil.
func (l *CentralLog) Device() *device.Device { return l.cfg.Device }

// SetTrace attaches (or, with a nil ring, detaches) the span ring the log
// emits physical-flush and coalesce-fold spans into, stamped with site.
// An online re-wiring re-attaches reused logs with the new wiring's site; the
// fold mark restarts at the current coalesced count so the first fold span
// after the move reports only new folds.
func (l *CentralLog) SetTrace(r *obs.Ring, site int32) {
	l.trace = r
	l.traceSite = site
	if l.coal != nil {
		l.traceFoldMark = l.coal.coalesced
	}
}

// bindDevice re-binds the log to a different device, keeping its records,
// durability horizon and group-commit state. An online island re-wiring uses
// it when a reused island log's device assignment changed: silently keeping
// the old binding would charge future flushes to a device the island no
// longer owns.
func (l *CentralLog) bindDevice(d *device.Device) { l.cfg.Device = d }

// Durable returns the highest durable LSN.
func (l *CentralLog) Durable() LSN { return l.durable }

// Tail returns the highest assigned LSN.
func (l *CentralLog) Tail() LSN { return l.next - 1 }

// Discarded returns how many physical records the log did not keep: every
// one emitted while it retained none. A log with Discarded() > 0 cannot be
// recovered from.
func (l *CentralLog) Discarded() int64 { return l.physRecords - int64(len(l.kept)) }

// RetainAll switches the log to full retention (Keep 0): every record from
// now on is kept. Records emitted before stay discarded.
func (l *CentralLog) RetainAll() { l.cfg.Keep = 0 }

// Records returns a copy of the kept records, oldest first: every physical
// record when Discarded() is 0.
func (l *CentralLog) Records() []Record { return slices.Clone(l.kept) }

// Stats summarizes log activity. Appends counts every appended record (the
// logical logging work, paid on the hot path regardless of coalescing);
// LogicalRecords is the row-write subset of Appends; PhysicalRecords counts
// records actually written to the log — with coalescing several
// logical records collapse into one physical entry; CoalescedRecords counts
// logical records absorbed into an existing net-delta entry.
// PhysicalFlushes and RideAlongFlushes split group commit exactly: flushes
// that hit the device (or paid the full flat flush cost) versus commits that
// rode along paying only the amortized group-forming latency. PhysicalBytes
// is the byte volume billed to the device by physical flushes.
type Stats struct {
	Appends          int64
	LogicalRecords   int64
	PhysicalRecords  int64
	CoalescedRecords int64
	PhysicalFlushes  int64
	RideAlongFlushes int64
	PhysicalBytes    int64
}

// Add returns the field-wise sum of s and o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Appends:          s.Appends + o.Appends,
		LogicalRecords:   s.LogicalRecords + o.LogicalRecords,
		PhysicalRecords:  s.PhysicalRecords + o.PhysicalRecords,
		CoalescedRecords: s.CoalescedRecords + o.CoalescedRecords,
		PhysicalFlushes:  s.PhysicalFlushes + o.PhysicalFlushes,
		RideAlongFlushes: s.RideAlongFlushes + o.RideAlongFlushes,
		PhysicalBytes:    s.PhysicalBytes + o.PhysicalBytes,
	}
}

// Sub returns the field-wise difference s-o, floored at zero per field, so a
// delta against a baseline taken from a different log set never goes
// negative.
func (s Stats) Sub(o Stats) Stats {
	f := func(a, b int64) int64 {
		if a < b {
			return 0
		}
		return a - b
	}
	return Stats{
		Appends:          f(s.Appends, o.Appends),
		LogicalRecords:   f(s.LogicalRecords, o.LogicalRecords),
		PhysicalRecords:  f(s.PhysicalRecords, o.PhysicalRecords),
		CoalescedRecords: f(s.CoalescedRecords, o.CoalescedRecords),
		PhysicalFlushes:  f(s.PhysicalFlushes, o.PhysicalFlushes),
		RideAlongFlushes: f(s.RideAlongFlushes, o.RideAlongFlushes),
		PhysicalBytes:    f(s.PhysicalBytes, o.PhysicalBytes),
	}
}

// Stats returns the log's activity counters.
func (l *CentralLog) Stats() Stats {
	st := Stats{
		Appends:          l.appends,
		LogicalRecords:   l.logical,
		PhysicalRecords:  l.physRecords,
		PhysicalFlushes:  l.physFlushes,
		RideAlongFlushes: l.rideAlongs,
		PhysicalBytes:    l.physBytes,
	}
	if l.coal != nil {
		st.CoalescedRecords = l.coal.coalesced
	}
	return st
}

// PartitionedLog gives each island its own CentralLog, as in a shared-nothing
// deployment with one instance per socket (the classic layout) or one per
// die/core island. Callers address island i's log with Log(i).
type PartitionedLog struct {
	logs  []*CentralLog
	homes []topology.SocketID
	// rebound counts reused logs whose device binding had to be re-derived.
	rebound int
}

// NewPartitionedLogAtDevices builds one log per entry of homes, each homed on
// the given socket — the log layout of a shared-nothing deployment with one
// instance per island: homes[i] is the socket of island i's first core.
// devices[i] is the log device island i's log flushes to (overriding
// cfg.Device); a nil or short devices slice leaves the remaining islands on
// cfg.Device.
func NewPartitionedLogAtDevices(d *numa.Domain, homes []topology.SocketID, cfg Config, devices []*device.Device) *PartitionedLog {
	return NewPartitionedLogAtReusing(d, homes, cfg, devices, nil)
}

// NewPartitionedLogAtReusing builds a per-island log set like
// NewPartitionedLogAtDevices, but carries over reuse[i] as island i's log when
// it is non-nil instead of creating a fresh one. It is how an online island-
// level change keeps the log (records, durability horizon, group-commit state)
// of every island whose core set the re-wiring leaves intact: the new wiring's
// islands that match an old island by core set pass the old log through, and
// only genuinely new islands get empty logs. A reused log whose device binding
// disagrees with the island's device is re-derived: the log (and its records)
// is carried over but re-bound to the island's device, never silently left on
// the old one. A nil or short reuse slice creates every remaining log fresh.
func NewPartitionedLogAtReusing(d *numa.Domain, homes []topology.SocketID, cfg Config, devices []*device.Device, reuse []*CentralLog) *PartitionedLog {
	if len(homes) == 0 {
		homes = []topology.SocketID{0}
	}
	p := &PartitionedLog{
		logs:  make([]*CentralLog, len(homes)),
		homes: append([]topology.SocketID(nil), homes...),
	}
	for i, h := range p.homes {
		want := cfg.Device
		if i < len(devices) && devices[i] != nil {
			want = devices[i]
		}
		if i < len(reuse) && reuse[i] != nil {
			p.logs[i] = reuse[i]
			if p.logs[i].Device() != want {
				p.logs[i].bindDevice(want)
				p.rebound++
			}
		} else {
			islandCfg := cfg
			islandCfg.Device = want
			p.logs[i] = NewCentralLog(d, h, islandCfg)
		}
	}
	return p
}

// ReboundDevices returns how many reused island logs had to be re-bound to a
// different device when the log set was built.
func (p *PartitionedLog) ReboundDevices() int { return p.rebound }

// NumLogs returns the number of per-island logs.
func (p *PartitionedLog) NumLogs() int { return len(p.logs) }

// Home returns the socket island i's log is homed on; out-of-range islands
// report the home of log 0, mirroring Log.
func (p *PartitionedLog) Home(i int) topology.SocketID {
	if i < 0 || i >= len(p.homes) {
		return p.homes[0]
	}
	return p.homes[i]
}

// Log returns the log of island i; out-of-range islands map to log 0 so that
// callers with a stale island index still make progress.
func (p *PartitionedLog) Log(i int) *CentralLog {
	if i < 0 || i >= len(p.logs) {
		return p.logs[0]
	}
	return p.logs[i]
}

// Drain forces every island log's write-combining accumulator out; see
// CentralLog.Drain. It returns the summed physical-flush cost.
func (p *PartitionedLog) Drain(now vclock.Nanos) numa.Cost {
	var cost numa.Cost
	for _, l := range p.logs {
		cost += l.Drain(now)
	}
	return cost
}

// Stats sums the per-island log counters.
func (p *PartitionedLog) Stats() Stats {
	var s Stats
	for _, l := range p.logs {
		s = s.Add(l.Stats())
	}
	return s
}
