package engine

import (
	"testing"

	"atrapos/internal/schema"
	"atrapos/internal/topology"
	"atrapos/internal/wal"
	"atrapos/internal/workload"
)

// deviceEngine builds a shared-nothing engine with a device layout on the
// chiplet machine.
func deviceEngine(t *testing.T, layout string, level topology.Level) *Engine {
	t.Helper()
	prof, ok := topology.ProfileByName("chiplet-2s4d")
	if !ok {
		t.Fatal("chiplet-2s4d missing")
	}
	e, err := New(Config{
		Design:       SharedNothing,
		IslandLevel:  level,
		Workload:     workload.MultisiteUpdate(2000, 0),
		Topology:     prof.Build(),
		DeviceLayout: layout,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestWiringBindsIslandDevices asserts every island log is bound to the
// device serving the island's home die.
func TestWiringBindsIslandDevices(t *testing.T) {
	for _, level := range []topology.Level{topology.LevelCore, topology.LevelDie, topology.LevelSocket, topology.LevelMachine} {
		e := deviceEngine(t, "nvme-per-socket", level)
		w := e.snap.wiring
		top := e.cfg.Topology
		for i, site := range w.sites {
			want := e.devices.DeviceFor(top.DieOf(site.ID))
			if got := w.logs.Log(i).Device(); got != want {
				t.Errorf("%v island %d: log bound to %v, want %v", level, i, got, want)
			}
		}
	}
}

// TestDeviceLayoutChargesQueueing asserts the device model actually reaches
// the commit path: a run with a single serialized device must record flushes
// and queue waits, and cost more virtual time than the same run with one
// NVMe per socket.
func TestDeviceLayoutChargesQueueing(t *testing.T) {
	run := func(layout string) (vt int64, flushes, queued int64) {
		e := deviceEngine(t, layout, topology.LevelCore)
		res, err := e.Run(RunOptions{Transactions: 400, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		st := e.Devices().Stats()
		return int64(res.VirtualTime), st.Flushes, st.Queued
	}
	vtNVMe, flushesNVMe, _ := run("nvme-per-socket")
	vtSATA, flushesSATA, queuedSATA := run("single-sata")
	if flushesNVMe == 0 || flushesSATA == 0 {
		t.Fatalf("no device flushes recorded: nvme %d, sata %d", flushesNVMe, flushesSATA)
	}
	if queuedSATA == 0 {
		t.Error("a single queue-depth-1 device under 32 core islands should see queued flushes")
	}
	if vtSATA <= vtNVMe {
		t.Errorf("single SATA run (%d ns) should cost more virtual time than per-socket NVMe (%d ns)", vtSATA, vtNVMe)
	}
}

// TestUnknownDeviceLayoutRejected asserts a typo surfaces at construction.
func TestUnknownDeviceLayoutRejected(t *testing.T) {
	_, err := New(Config{
		Design:       SharedNothing,
		Workload:     workload.MultisiteUpdate(2000, 0),
		Topology:     topology.Small(),
		DeviceLayout: "punch-cards",
	})
	if err == nil {
		t.Fatal("unknown device layout should fail engine construction")
	}
}

// TestLevelChangeReusesDeviceBindings asserts a re-wiring resolves island
// devices against the same engine-lifetime map: islands whose core sets
// survive keep both their log and its binding (no rebinds), and rebuilt
// islands land on the device of their home die.
func TestLevelChangeReusesDeviceBindings(t *testing.T) {
	// On the one-socket consumer part the socket and machine islands have the
	// same core set, so the socket->machine re-wiring reuses the log.
	prof, _ := topology.ProfileByName("consumer-1s4d")
	e, err := New(Config{
		Design:       SharedNothing,
		IslandLevel:  topology.LevelSocket,
		Workload:     workload.MultisiteUpdate(2000, 0),
		Topology:     prof.Build(),
		DeviceLayout: "nvme-per-die-pair",
	})
	if err != nil {
		t.Fatal(err)
	}
	w1 := e.snap.wiring
	w2 := e.buildWiring(topology.LevelMachine, 1, w1)
	if w2.reusedLogs != 1 || w2.rebuiltLogs != 0 {
		t.Fatalf("socket->machine on a one-socket part should reuse the log: reused %d, rebuilt %d",
			w2.reusedLogs, w2.rebuiltLogs)
	}
	if w2.reboundDevices != 0 {
		t.Errorf("binding unchanged, yet %d logs were rebound", w2.reboundDevices)
	}
	if w2.logs.Log(0) != w1.logs.Log(0) || w2.logs.Log(0).Device() != w1.logs.Log(0).Device() {
		t.Error("reused log should keep its identity and device binding")
	}

	// A die->socket merge on the chiplet machine rebuilds every log; each
	// fresh log must bind to its home die's device.
	ec := deviceEngine(t, "nvme-per-socket", topology.LevelDie)
	wd := ec.snap.wiring
	ws := ec.buildWiring(topology.LevelSocket, 1, wd)
	if ws.reusedLogs != 0 {
		t.Fatalf("die->socket on the chiplet machine should rebuild all logs, reused %d", ws.reusedLogs)
	}
	top := ec.cfg.Topology
	for i, site := range ws.sites {
		if ws.logs.Log(i).Device() != ec.devices.DeviceFor(top.DieOf(site.ID)) {
			t.Errorf("rebuilt island %d bound to the wrong device", i)
		}
	}
}

// mapStore is an in-memory RowStore for replay checks.
type mapStore map[schema.Key]schema.Row

func (m mapStore) ApplyInsert(key schema.Key, row schema.Row) { m[key] = row }
func (m mapStore) ApplyDelete(key schema.Key)                 { delete(m, key) }

// TestRecoveryAcrossLevelChange asserts records appended before an online
// re-wiring replay correctly from the new wiring's per-island logs: the
// socket->machine change on the one-socket part carries the island log (and
// its device binding) over, so a post-change recovery still sees the
// pre-change updates.
func TestRecoveryAcrossLevelChange(t *testing.T) {
	prof, _ := topology.ProfileByName("consumer-1s4d")
	wl := workload.MultisiteUpdate(2000, 0)
	e, err := New(Config{
		Design:       SharedNothing,
		IslandLevel:  topology.LevelSocket,
		Workload:     wl,
		Topology:     prof.Build(),
		DeviceLayout: "single-sata",
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(RunOptions{Transactions: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("no transactions committed before the re-wire")
	}
	w1 := e.snap.wiring
	preTail := w1.logs.Log(0).Tail()
	if preTail == 0 {
		t.Fatal("no records appended before the re-wire")
	}

	// Re-wire to machine granularity; the single island's core set is
	// unchanged, so the log with every pre-change record is carried over.
	w2 := e.buildWiring(topology.LevelMachine, 1, w1)
	if w2.reusedLogs != 1 {
		t.Fatalf("re-wire should reuse the island log, reused %d", w2.reusedLogs)
	}

	// Replay every island log of the new wiring into fresh stores.
	stores := make(map[string]wal.RowStore)
	updated := make(map[string]mapStore)
	for _, spec := range wl.TableSpecs() {
		ms := make(mapStore)
		stores[spec.Name] = ms
		updated[spec.Name] = ms
	}
	var redone int
	for i := 0; i < w2.logs.NumLogs(); i++ {
		lg := w2.logs.Log(i)
		stats, err := wal.Recover(lg.Records(), lg.Durable(), false, stores)
		if err != nil {
			t.Fatal(err)
		}
		redone += stats.Redone
	}
	if redone == 0 {
		t.Fatal("recovery from the post-change logs redid nothing")
	}
	// Every update record of a committed transaction must be present in the
	// replayed store.
	for _, rec := range w2.logs.Log(0).Records() {
		if rec.Type != wal.Update {
			continue
		}
		ms, ok := updated[rec.Table]
		if !ok {
			continue
		}
		if _, ok := ms[rec.Key]; !ok {
			t.Fatalf("update record for %s/%v from before the re-wire did not replay", rec.Table, rec.Key)
		}
	}
}
