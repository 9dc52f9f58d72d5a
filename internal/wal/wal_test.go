package wal

import (
	"reflect"
	"testing"

	"atrapos/internal/device"
	"atrapos/internal/numa"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
)

func newDomain(sockets int) *numa.Domain {
	top := topology.MustNew(topology.Config{Sockets: sockets, CoresPerSocket: 2})
	return numa.NewDomain(top)
}

func TestRecordTypeString(t *testing.T) {
	types := []RecordType{Update, Insert, Delete, Commit, Abort, Prepare, EndOfDistributed, RecordType(42)}
	for _, rt := range types {
		if rt.String() == "" {
			t.Errorf("record type %d has empty string", rt)
		}
	}
}

func TestCentralLogAppendAssignsMonotonicLSNs(t *testing.T) {
	d := newDomain(2)
	l := NewCentralLog(d, 0, DefaultConfig())
	var prev LSN
	for i := 0; i < 100; i++ {
		lsn, cost := l.Append(0, Record{Txn: uint64(i), Type: Update, Table: "t", Key: schema.KeyFromInt(int64(i)), Size: 64})
		if lsn <= prev {
			t.Fatalf("LSN %d not greater than previous %d", lsn, prev)
		}
		if cost <= 0 {
			t.Fatal("append cost should be positive")
		}
		prev = lsn
	}
	if l.Tail() != prev {
		t.Errorf("Tail = %d, want %d", l.Tail(), prev)
	}
	if got := l.Stats().Appends; got != 100 {
		t.Errorf("Appends = %d, want 100", got)
	}
}

func TestCentralLogLargerRecordsCostMore(t *testing.T) {
	d := newDomain(1)
	l := NewCentralLog(d, 0, DefaultConfig())
	_, small := l.Append(0, Record{Size: 16})
	_, large := l.Append(0, Record{Size: 4096})
	if large <= small {
		t.Errorf("large record cost %d should exceed small record cost %d", large, small)
	}
}

func TestCentralLogRemoteAppendsCostMore(t *testing.T) {
	d := newDomain(8)
	l := NewCentralLog(d, 0, DefaultConfig())
	_, localCost := l.Append(0, Record{Size: 64})
	_, remoteCost := l.Append(7, Record{Size: 64})
	if remoteCost <= localCost {
		t.Errorf("remote append cost %d should exceed local %d", remoteCost, localCost)
	}
}

func TestGroupCommit(t *testing.T) {
	d := newDomain(1)
	l := NewCentralLog(d, 0, DefaultConfig())
	var lsns []LSN
	for i := 0; i < 2*GroupSize; i++ {
		lsn, _ := l.Append(0, Record{Txn: uint64(i), Type: Commit, Size: 32})
		lsns = append(lsns, lsn)
	}
	var fullFlushes int
	for _, lsn := range lsns {
		cost := l.Flush(0, lsn, 0)
		if cost >= FlushCost {
			fullFlushes++
		}
	}
	if fullFlushes != 2 {
		t.Errorf("with group size %d and %d commits, want 2 full flushes, got %d", GroupSize, len(lsns), fullFlushes)
	}
	if l.Durable() != lsns[len(lsns)-1] {
		t.Errorf("Durable = %d, want %d", l.Durable(), lsns[len(lsns)-1])
	}
	if got := l.Stats().PhysicalFlushes; got != 2 {
		t.Errorf("PhysicalFlushes = %d, want 2", got)
	}
	if got := l.Stats().RideAlongFlushes; got != 2*GroupSize-2 {
		t.Errorf("RideAlongFlushes = %d, want %d", got, 2*GroupSize-2)
	}
	// Flushing an already durable LSN is cheap and does not count.
	if cost := l.Flush(0, lsns[0], 0); cost >= FlushCost {
		t.Errorf("stale flush cost %d should be small", cost)
	}
}

// keepAllConfig is DefaultConfig retaining every record (Keep 0), for the
// tests that read Records.
func keepAllConfig() Config {
	cfg := DefaultConfig()
	cfg.Keep = 0
	return cfg
}

// TestCentralLogRecordsRetention: a log keeps every record or none. Keep 0
// keeps all of them, oldest first; any other value keeps none and counts
// each as discarded; RetainAll keeps every later record while the earlier
// ones stay discarded.
func TestCentralLogRecordsRetention(t *testing.T) {
	d := newDomain(1)
	appendTxns := func(l *CentralLog, from, n int) {
		for i := from; i < from+n; i++ {
			l.Append(0, Record{Txn: uint64(i), Size: 8})
		}
	}
	for _, keep := range []int{DefaultConfig().Keep, 10, 4096} {
		cfg := DefaultConfig()
		cfg.Keep = keep
		l := NewCentralLog(d, 0, cfg)
		appendTxns(l, 0, 25)
		if n, dropped := len(l.Records()), l.Discarded(); n != 0 || dropped != 25 {
			t.Errorf("Keep %d: retained %d records and discarded %d, want 0 and 25", keep, n, dropped)
		}
	}

	all := NewCentralLog(d, 0, keepAllConfig())
	appendTxns(all, 0, 25)
	recs := all.Records()
	if len(recs) != 25 || all.Discarded() != 0 {
		t.Fatalf("Keep 0: retained %d records and discarded %d, want 25 and 0", len(recs), all.Discarded())
	}
	for i, r := range recs {
		if r.Txn != uint64(i) {
			t.Fatalf("record %d holds txn %d: not oldest first", i, r.Txn)
		}
	}

	late := NewCentralLog(d, 0, DefaultConfig())
	appendTxns(late, 0, 5)
	late.RetainAll()
	appendTxns(late, 5, 7)
	if recs = late.Records(); len(recs) != 7 || recs[0].Txn != 5 || late.Discarded() != 5 {
		t.Errorf("RetainAll after 5 records: retained %v, discarded %d; want txns 5-11, 5 discarded", recs, late.Discarded())
	}
}

// TestCentralLogPadded pins the layout that keeps two executors' value logs
// apart: the struct ends in a pad of at least one cache line, so a log
// allocated right behind another never shares a line with its hot fields.
func TestCentralLogPadded(t *testing.T) {
	typ := reflect.TypeOf(CentralLog{})
	last := typ.Field(typ.NumField() - 1)
	if last.Name != "_" || last.Type.Size() < 64 {
		t.Errorf("CentralLog ends in field %q of %d bytes, want a pad of >= 64", last.Name, last.Type.Size())
	}
}

func TestDefaultConfigSanity(t *testing.T) {
	if GroupSize < 1 || FlushCost <= 0 || PerByteCost < 0 {
		t.Errorf("suspicious group-commit price: GroupSize %d, FlushCost %d, PerByteCost %d", GroupSize, FlushCost, PerByteCost)
	}
	// The default retains no records: only a crash drill reads them, and it
	// switches its logs to full retention itself.
	if cfg := DefaultConfig(); cfg.Keep == 0 || cfg.CoalesceRecords != 0 {
		t.Errorf("suspicious default config %+v", cfg)
	}
}

func TestPartitionedLogRoutesLocally(t *testing.T) {
	d := newDomain(4)
	p := NewPartitionedLogAtDevices(d, []topology.SocketID{0, 1, 2, 3}, DefaultConfig(), nil)
	// An island's appends land in its own log, homed on its socket, and stay
	// cheap.
	maxLocal := numa.LocalAtomic + 64*PerByteCost
	for i := 0; i < p.NumLogs(); i++ {
		if _, cost := p.Log(i).Append(p.Home(i), Record{Txn: uint64(i), Size: 64}); cost > maxLocal {
			t.Errorf("island %d append cost %d, want <= %d", i, cost, maxLocal)
		}
	}
	for i := 0; i < p.NumLogs(); i++ {
		if p.Log(i).Tail() != 1 {
			t.Errorf("island %d log tail = %d, want 1", i, p.Log(i).Tail())
		}
	}
	// A stale island index falls back to island 0.
	if p.Log(99) != p.Log(0) || p.Home(99) != p.Home(0) {
		t.Error("out-of-range island should map to island 0")
	}
}

func TestPartitionedLogEmptyDurable(t *testing.T) {
	d := newDomain(2)
	p := NewPartitionedLogAtDevices(d, []topology.SocketID{0, 1}, DefaultConfig(), nil)
	for i := 0; i < p.NumLogs(); i++ {
		if p.Log(i).Durable() != 0 || p.Log(i).Tail() != 0 {
			t.Errorf("empty island log %d: durable %d, tail %d, want 0, 0", i, p.Log(i).Durable(), p.Log(i).Tail())
		}
	}
	// No homes still builds one log, on socket 0.
	if one := NewPartitionedLogAtDevices(d, nil, DefaultConfig(), nil); one.NumLogs() != 1 || one.Home(0) != 0 {
		t.Errorf("homeless log set: %d logs, home %d; want 1 log on socket 0", one.NumLogs(), one.Home(0))
	}
}

// TestReusedLogRebindsChangedDevice is the regression test for the device-
// binding reuse bug: NewPartitionedLogAtReusing must not silently keep a
// reused log on its old device when the island's device assignment changed —
// the log is re-derived onto the new device, keeping its records and
// group-commit state.
func TestReusedLogRebindsChangedDevice(t *testing.T) {
	d := newDomain(2)
	devA := device.New(device.Spec{Name: "a", Class: "nvme", FlushLatency: 100, QueueDepth: 1})
	devB := device.New(device.Spec{Name: "b", Class: "sata", FlushLatency: 900, QueueDepth: 1})
	homes := []topology.SocketID{0, 1}
	p1 := NewPartitionedLogAtDevices(d, homes, keepAllConfig(), []*device.Device{devA, devA})
	p1.Log(0).Append(0, Record{Txn: 1, Type: Update, Table: "t", Key: 7, Size: 64})
	p1.Log(0).Append(0, Record{Txn: 1, Type: Commit, Size: 48})

	// Rebuild reusing both logs, but island 0's device moved to devB.
	p2 := NewPartitionedLogAtReusing(d, homes, keepAllConfig(),
		[]*device.Device{devB, devA}, []*CentralLog{p1.Log(0), p1.Log(1)})
	if p2.Log(0) != p1.Log(0) {
		t.Fatal("island 0's log should be reused")
	}
	if got := p2.Log(0).Device(); got != devB {
		t.Fatalf("reused log kept device %v, want re-derived binding %v", got, devB)
	}
	if got := p2.Log(1).Device(); got != devA {
		t.Fatalf("unchanged island rebound to %v, want %v", got, devA)
	}
	if p2.ReboundDevices() != 1 {
		t.Fatalf("rebound count = %d, want 1", p2.ReboundDevices())
	}
	// Records survived the re-derivation.
	if got := len(p2.Log(0).Records()); got != 2 {
		t.Fatalf("re-bound log retained %d records, want 2", got)
	}
	// And future flushes pay the new device: a full group on the re-bound log
	// must cost devB's service latency, not devA's.
	lg := p2.Log(0)
	var flushCost numa.Cost
	for i := 0; i < GroupSize; i++ {
		lsn, _ := lg.Append(0, Record{Txn: uint64(10 + i), Type: Update, Table: "t", Key: schema.Key(i), Size: 64})
		if c := lg.Flush(0, lsn, 0); c > flushCost {
			flushCost = c
		}
	}
	if flushCost < 900 {
		t.Fatalf("full flush after rebinding cost %d, want >= the new device's 900", flushCost)
	}
}

// TestRecoveryAcrossDeviceRebinding asserts records appended before a
// device-rebinding rebuild replay correctly from the new per-island logs.
func TestRecoveryAcrossDeviceRebinding(t *testing.T) {
	d := newDomain(2)
	devA := device.New(device.Spec{Name: "a", FlushLatency: 100, QueueDepth: 1})
	devB := device.New(device.Spec{Name: "b", FlushLatency: 900, QueueDepth: 1})
	homes := []topology.SocketID{0, 1}
	p1 := NewPartitionedLogAtDevices(d, homes, keepAllConfig(), []*device.Device{devA, devA})
	for i := 0; i < 10; i++ {
		lg := p1.Log(i % 2)
		home := p1.Home(i % 2)
		lg.Append(home, Record{Txn: uint64(i), Type: Update, Table: "t", Key: schema.Key(i), Size: 64})
		lsn, _ := lg.Append(home, Record{Txn: uint64(i), Type: Commit, Size: 48})
		lg.Flush(home, lsn, 0)
	}
	p2 := NewPartitionedLogAtReusing(d, homes, keepAllConfig(),
		[]*device.Device{devB, devB}, []*CentralLog{p1.Log(0), p1.Log(1)})
	if p2.ReboundDevices() != 2 {
		t.Fatalf("rebound count = %d, want 2", p2.ReboundDevices())
	}
	store := newMapStore()
	tables := map[string]RowStore{"t": store}
	for i := 0; i < p2.NumLogs(); i++ {
		lg := p2.Log(i)
		if _, err := Recover(lg.Records(), lg.Durable(), false, tables); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, ok := store.rows[schema.Key(i)]; !ok {
			t.Errorf("committed key %d did not replay from the re-bound logs", i)
		}
	}
}
