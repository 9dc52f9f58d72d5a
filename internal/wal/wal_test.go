package wal

import (
	"sync"
	"testing"

	"atrapos/internal/device"
	"atrapos/internal/numa"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
)

func newDomain(sockets int) *numa.Domain {
	top := topology.MustNew(topology.Config{Sockets: sockets, CoresPerSocket: 2})
	return numa.MustNewDomain(top, numa.DefaultCostModel())
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
	cfg := DefaultConfig()
	cfg.GroupSize = 4
	l := NewCentralLog(d, 0, cfg)
	var lsns []LSN
	for i := 0; i < 8; i++ {
		lsn, _ := l.Append(0, Record{Txn: uint64(i), Type: Commit, Size: 32})
		lsns = append(lsns, lsn)
	}
	var fullFlushes int
	for _, lsn := range lsns {
		cost := l.Flush(0, lsn, 0)
		if cost >= cfg.FlushCost {
			fullFlushes++
		}
	}
	if fullFlushes != 2 {
		t.Errorf("with group size 4 and 8 commits, want 2 full flushes, got %d", fullFlushes)
	}
	if l.Durable() != lsns[len(lsns)-1] {
		t.Errorf("Durable = %d, want %d", l.Durable(), lsns[len(lsns)-1])
	}
	if got := l.Stats().PhysicalFlushes; got != 2 {
		t.Errorf("PhysicalFlushes = %d, want 2", got)
	}
	if got := l.Stats().RideAlongFlushes; got != 6 {
		t.Errorf("RideAlongFlushes = %d, want 6", got)
	}
	// Flushing an already durable LSN is cheap and does not count.
	if cost := l.Flush(0, lsns[0], 0); cost >= cfg.FlushCost {
		t.Errorf("stale flush cost %d should be small", cost)
	}
}

func TestCentralLogRecordsRetention(t *testing.T) {
	d := newDomain(1)
	cfg := DefaultConfig()
	cfg.Keep = 10
	l := NewCentralLog(d, 0, cfg)
	for i := 0; i < 25; i++ {
		l.Append(0, Record{Txn: uint64(i), Size: 8})
	}
	recs := l.Records()
	if len(recs) != 10 {
		t.Fatalf("retained %d records, want 10", len(recs))
	}
	if recs[0].Txn != 15 {
		t.Errorf("oldest retained record txn = %d, want 15", recs[0].Txn)
	}
	// Keep == 0 retains everything.
	cfg.Keep = 0
	l2 := NewCentralLog(d, 0, cfg)
	for i := 0; i < 25; i++ {
		l2.Append(0, Record{Size: 8})
	}
	if len(l2.Records()) != 25 {
		t.Errorf("unbounded log retained %d records", len(l2.Records()))
	}
}

func TestCentralLogConcurrentAppends(t *testing.T) {
	d := newDomain(4)
	l := NewCentralLog(d, 0, DefaultConfig())
	var wg sync.WaitGroup
	const perWorker = 200
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				l.Append(topology.SocketID(w), Record{Txn: uint64(w), Size: 16})
			}
		}(w)
	}
	wg.Wait()
	if l.Tail() != LSN(4*perWorker) {
		t.Errorf("Tail = %d, want %d", l.Tail(), 4*perWorker)
	}
}

func TestDefaultConfigSanity(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.GroupSize < 1 || cfg.FlushCost <= 0 {
		t.Errorf("suspicious default config %+v", cfg)
	}
	// A config with nonsense values is clamped by the constructor.
	d := newDomain(1)
	l := NewCentralLog(d, 0, Config{GroupSize: 0, PerByteCost: -5, FlushCost: 100})
	lsn, cost := l.Append(0, Record{Size: 100})
	if lsn != 1 || cost <= 0 {
		t.Errorf("append with clamped config: lsn %d cost %d", lsn, cost)
	}
	if c := l.Flush(0, lsn, 0); c < 100 {
		t.Errorf("group size 1 should always pay the full flush, got %d", c)
	}
}

func TestPartitionedLogRoutesLocally(t *testing.T) {
	d := newDomain(4)
	p := NewPartitionedLogAtDevices(d, []topology.SocketID{0, 1, 2, 3}, DefaultConfig(), nil)
	// Appends from each socket land in that socket's log and stay cheap.
	for s := 0; s < 4; s++ {
		_, cost := p.Append(topology.SocketID(s), Record{Txn: uint64(s), Size: 64})
		maxLocal := d.Model.LocalAtomic + 64*DefaultConfig().PerByteCost
		if cost > maxLocal {
			t.Errorf("socket %d append cost %d, want <= %d", s, cost, maxLocal)
		}
	}
	for s := 0; s < 4; s++ {
		if p.Log(s).Tail() != 1 {
			t.Errorf("socket %d log tail = %d, want 1", s, p.Log(s).Tail())
		}
	}
	if p.Tail() != 1 {
		t.Errorf("global tail = %d, want 1", p.Tail())
	}
	// Durability horizon is the minimum across sockets.
	lsn, _ := p.Append(0, Record{Type: Commit, Size: 8})
	for i := 0; i < 10; i++ {
		p.Flush(0, lsn, 0)
	}
	if p.Durable() != 0 {
		t.Errorf("Durable = %d, want 0 while other sockets have flushed nothing", p.Durable())
	}
	// Unknown sockets fall back to socket 0.
	if _, cost := p.Append(topology.SocketID(99), Record{Size: 8}); cost <= 0 {
		t.Error("fallback append should still be charged")
	}
}

func TestPartitionedLogEmptyDurable(t *testing.T) {
	d := newDomain(2)
	p := NewPartitionedLogAtDevices(d, []topology.SocketID{0, 1}, DefaultConfig(), nil)
	if p.Durable() != 0 {
		t.Errorf("empty partitioned log durable = %d, want 0", p.Durable())
	}
	if p.Tail() != 0 {
		t.Errorf("empty partitioned log tail = %d, want 0", p.Tail())
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
	p1 := NewPartitionedLogAtDevices(d, homes, DefaultConfig(), []*device.Device{devA, devA})
	p1.Log(0).Append(0, Record{Txn: 1, Type: Update, Table: "t", Key: 7, Size: 64})
	p1.Log(0).Append(0, Record{Txn: 1, Type: Commit, Size: 48})

	// Rebuild reusing both logs, but island 0's device moved to devB.
	p2 := NewPartitionedLogAtReusing(d, homes, DefaultConfig(),
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
	cfg := DefaultConfig()
	var flushCost numa.Cost
	for i := 0; i < cfg.GroupSize; i++ {
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
	p1 := NewPartitionedLogAtDevices(d, homes, DefaultConfig(), []*device.Device{devA, devA})
	for i := 0; i < 10; i++ {
		lg := p1.Log(i % 2)
		home := p1.Home(i % 2)
		lg.Append(home, Record{Txn: uint64(i), Type: Update, Table: "t", Key: schema.Key(i), Size: 64})
		lsn, _ := lg.Append(home, Record{Txn: uint64(i), Type: Commit, Size: 48})
		lg.Flush(home, lsn, 0)
	}
	p2 := NewPartitionedLogAtReusing(d, homes, DefaultConfig(),
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
