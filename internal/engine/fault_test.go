package engine

import (
	"strings"
	"testing"

	"atrapos/internal/core"
	"atrapos/internal/fault"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/wal"
	"atrapos/internal/workload"
)

func TestRestoreSocketMirrorsFailSocket(t *testing.T) {
	e := deviceEngine(t, "nvme-per-socket", topology.LevelSocket)
	if err := e.RestoreSocket(9); err == nil || !strings.Contains(err.Error(), "unknown socket") {
		t.Errorf("restoring an unknown socket: err = %v", err)
	}
	if err := e.RestoreSocket(1); err == nil || !strings.Contains(err.Error(), "already alive") {
		t.Errorf("restoring an alive socket: err = %v", err)
	}
	if err := e.FailSocket(1); err != nil {
		t.Fatal(err)
	}
	if e.Topology().Alive(1) {
		t.Fatal("socket 1 should be dead")
	}
	if err := e.RestoreSocket(1); err != nil {
		t.Fatal(err)
	}
	if !e.Topology().Alive(1) {
		t.Error("socket 1 should be alive again")
	}
}

func TestDeviceFaultsWithoutLayoutRejected(t *testing.T) {
	e, err := New(Config{
		Design:   SharedNothing,
		Workload: workload.MultisiteUpdate(2000, 0),
		Topology: topology.Small(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"fail":    func() error { return e.FailDevice(0) },
		"degrade": func() error { return e.DegradeDevice(0, 2) },
	} {
		if err := call(); err == nil || !strings.Contains(err.Error(), "no log-device layout") {
			t.Errorf("%s without a layout: err = %v", name, err)
		}
	}
}

// TestCompileFaultsValidation asserts a schedule built for a different
// machine shape — or an unsupported drill configuration — is rejected when
// attached, before any transaction runs.
func TestCompileFaultsValidation(t *testing.T) {
	e := deviceEngine(t, "nvme-per-socket", topology.LevelDie) // 2 sockets, 2 devices
	opts := RunOptions{Transactions: 10}

	wrongSockets, err := fault.NewSchedule(fault.Machine{Sockets: 4, Devices: 2}, fault.FailSocket(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	opts.Faults = wrongSockets
	if _, err := e.Run(opts); err == nil || !strings.Contains(err.Error(), "4-socket machine") {
		t.Errorf("socket-count mismatch: err = %v", err)
	}

	wrongDevices, err := fault.NewSchedule(fault.Machine{Sockets: 2, Devices: 4}, fault.FailDevice(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	opts.Faults = wrongDevices
	if _, err := e.Run(opts); err == nil || !strings.Contains(err.Error(), "4 log devices") {
		t.Errorf("device-count mismatch: err = %v", err)
	}

	crash, err := fault.NewSchedule(fault.Machine{Sockets: 2, Devices: 2}, fault.CrashAndRecover(1))
	if err != nil {
		t.Fatal(err)
	}
	opts.Faults = crash
	// Default Keep is bounded: the drill must demand full retention.
	if _, err := e.Run(opts); err == nil || !strings.Contains(err.Error(), "unbounded log retention") {
		t.Errorf("crash drill with bounded ring: err = %v", err)
	}
}

// TestValidateAliveDevices is the satellite-2 regression test: the placement
// liveness invariant must cover storage, not just sockets.
func TestValidateAliveDevices(t *testing.T) {
	e := deviceEngine(t, "nvme-per-socket", topology.LevelDie)
	p := e.Placement()
	top := e.Topology()
	if err := p.ValidateAliveDevices(top, e.Devices()); err != nil {
		t.Fatalf("healthy devices: %v", err)
	}
	if err := p.ValidateAliveDevices(top, nil); err != nil {
		t.Fatalf("nil device map must be trivially valid: %v", err)
	}
	// One failed device re-homes; the invariant still holds.
	if err := e.FailDevice(0); err != nil {
		t.Fatal(err)
	}
	if err := p.ValidateAliveDevices(top, e.Devices()); err != nil {
		t.Fatalf("one failed device of two should re-home, not invalidate: %v", err)
	}
	// All devices failed (bypassing the map's last-device guard): no wiring
	// derived from this placement could bind logs to alive storage.
	for _, d := range e.Devices().Devices() {
		d.Fail()
	}
	if err := p.ValidateAliveDevices(top, e.Devices()); err == nil || !strings.Contains(err.Error(), "no alive log device") {
		t.Errorf("all devices failed: err = %v", err)
	}
	e.Devices().ResetFaults()
}

// TestWiringNeverBindsFailedDevice asserts the wiring rebuild re-homes island
// logs off failed devices (the regression half of satellite 2: the rebuild
// used to consider only socket liveness).
func TestWiringNeverBindsFailedDevice(t *testing.T) {
	e := deviceEngine(t, "nvme-per-socket", topology.LevelDie)
	if err := e.FailDevice(0); err != nil {
		t.Fatal(err)
	}
	if !e.WiringBindsFailedDevice() {
		t.Fatal("the installed wiring should still reference the just-failed device")
	}
	w1 := e.snap.wiring
	w2 := e.buildWiring(topology.LevelDie, w1.epoch+1, w1)
	for i := 0; i < w2.logs.NumLogs(); i++ {
		if d := w2.logs.Log(i).Device(); d == nil || d.Failed() {
			t.Errorf("rebuilt island %d bound to a failed (or nil) device", i)
		}
	}
	// Same core sets: every log is reused, and the ones that moved device are
	// counted as rebound — the records-preserving re-home path.
	if w2.reusedLogs != w1.logs.NumLogs() {
		t.Errorf("same-level rebuild should reuse all %d logs, reused %d", w1.logs.NumLogs(), w2.reusedLogs)
	}
	if w2.reboundDevices == 0 {
		t.Error("islands homed on the failed device should have been rebound")
	}
	e.Devices().ResetFaults()
}

// TestAdaptivePlannerRehomesFailedDevice drives the full loop: a FailDevice
// event mid-run makes the planner re-wire, reusing the island logs (records
// preserved) while re-binding the affected ones to surviving devices. The
// engine starts at core level — the level the planner prefers for a 0%
// multisite workload — so the failure-triggered refresh is a same-level
// rebind rather than racing a pending level change (which rebuilds logs).
func TestAdaptivePlannerRehomesFailedDevice(t *testing.T) {
	prof, _ := topology.ProfileByName("chiplet-2s4d")
	e, err := New(Config{
		Design:       SharedNothing,
		IslandLevel:  topology.LevelCore,
		Workload:     workload.MultisiteUpdate(8000, 0),
		Topology:     prof.Build(),
		DeviceLayout: "nvme-per-socket",
		Adaptive:     true,
		AdaptiveInterval: core.IntervalConfig{
			Initial: granWindow, Max: 4 * granWindow,
		},
		TimeCompression: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fault.NewSchedule(fault.Machine{Sockets: 2, Devices: 2}, fault.FailDevice(5*granWindow, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(RunOptions{
		Duration: 30 * granWindow, Transactions: 200_000,
		Seed: 7, SampleWindow: granWindow,
		Faults: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("run should keep committing across the device failure")
	}
	if e.WiringBindsFailedDevice() {
		t.Error("planner left an island log bound to the failed device")
	}
	if !e.WiringConverged() {
		t.Error("wiring did not converge after the device failure")
	}
	rebound := 0
	for _, lc := range res.LevelChanges {
		rebound += lc.ReboundDevices
	}
	if rebound == 0 {
		t.Errorf("no island log was rebound across the failure; changes: %+v", res.LevelChanges)
	}
	e.Devices().ResetFaults()
}

// TestAdaptivePlannerReexpandsOnRestore: after a socket fails and returns,
// the granularity planner must re-expand the wiring onto the restored
// capacity — elastic capacity, the missing half of Figure 12.
func TestAdaptivePlannerReexpandsOnRestore(t *testing.T) {
	wl := workload.MultisiteUpdateDrifting(8000, func(vclock.Nanos) int { return 0 })
	e := adaptiveGranEngine(t, "subnuma-4s2d", topology.LevelDie, wl)
	sched, err := fault.NewSchedule(fault.Machine{Sockets: 4},
		fault.FailSocket(5*granWindow, 3),
		fault.RestoreSocket(15*granWindow, 3),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(RunOptions{
		Duration: 40 * granWindow, Transactions: 200_000,
		Seed: 7, SampleWindow: granWindow,
		Faults: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	top := e.Topology()
	if !top.Alive(3) {
		t.Fatal("socket 3 should have been restored")
	}
	if !e.WiringConverged() {
		t.Fatal("wiring did not re-expand onto the restored socket")
	}
	w := e.snap.wiring
	onRestored := false
	for _, s := range w.sites {
		if s.Socket == 3 {
			onRestored = true
		}
	}
	if !onRestored {
		t.Errorf("no site homed on the restored socket; sites: %+v", w.sites)
	}
	if err := e.Placement().ValidateAlive(top); err != nil {
		t.Errorf("post-restore placement: %v", err)
	}
	if res.Committed == 0 {
		t.Fatal("run should commit across fail and restore")
	}
}

// TestFaultsDuringLevelChanges: the whole fault vocabulary fires while the
// granularity planner is changing levels (the workload drifts from 0% to 100%
// multisite mid-run, forcing a coarsening). The run is one goroutine, so
// faults and re-wirings interleave at transaction boundaries; the post-run
// invariants catch torn wiring: socket 3 restored, no island log on the failed
// device, the placement and device binding valid on live hardware.
func TestFaultsDuringLevelChanges(t *testing.T) {
	prof, ok := topology.ProfileByName("subnuma-4s2d")
	if !ok {
		t.Fatal("subnuma-4s2d missing")
	}
	wl := workload.MultisiteUpdateDrifting(8000, func(at vclock.Nanos) int {
		if at < 15*granWindow {
			return 0
		}
		return 100
	})
	e, err := New(Config{
		Design:       SharedNothing,
		IslandLevel:  topology.LevelDie,
		Workload:     wl,
		Topology:     prof.Build(),
		DeviceLayout: "nvme-per-socket",
		Adaptive:     true,
		AdaptiveInterval: core.IntervalConfig{
			Initial: granWindow, Max: 4 * granWindow,
		},
		TimeCompression: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fault.NewSchedule(fault.Machine{Sockets: 4, Devices: 4},
		fault.FailDevice(3*granWindow, 0),
		fault.DegradeDevice(6*granWindow, 3, 4),
		fault.FailSocket(10*granWindow, 3),
		fault.DegradeDevice(18*granWindow, 3, 1),
		fault.RestoreSocket(20*granWindow, 3),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(RunOptions{
		Duration: 30 * granWindow, Transactions: 120_000,
		Seed: 13, SampleWindow: granWindow,
		Faults: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("run should keep committing through faults and level changes")
	}
	top := e.Topology()
	if !top.Alive(3) {
		t.Error("socket 3 should end the run restored")
	}
	if e.WiringBindsFailedDevice() {
		t.Error("an island log ended the run bound to the failed device")
	}
	if err := e.Placement().ValidateAlive(top); err != nil {
		t.Errorf("post-run placement: %v", err)
	}
	if err := e.Placement().ValidateAliveDevices(top, e.Devices()); err != nil {
		t.Errorf("post-run device binding: %v", err)
	}
	e.Devices().ResetFaults()
}

// crashDrillEngine builds a serial-drill-capable engine: fixed island level,
// unbounded log retention, no adaptivity.
func crashDrillEngine(t *testing.T, wl *workload.Workload) *Engine {
	t.Helper()
	prof, _ := topology.ProfileByName("chiplet-2s4d")
	lc := wal.DefaultConfig()
	lc.Keep = 0
	e, err := New(Config{
		Design:       SharedNothing,
		IslandLevel:  topology.LevelDie,
		Workload:     wl,
		Topology:     prof.Build(),
		DeviceLayout: "nvme-per-die-pair",
		LogConfig:    &lc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func keySetsEqual(a, b map[string][]schema.Key) (string, bool) {
	if len(a) != len(b) {
		return "table-count mismatch", false
	}
	for name, ka := range a {
		kb, ok := b[name]
		if !ok {
			return "missing table " + name, false
		}
		if len(ka) != len(kb) {
			return name, false
		}
		for i := range ka {
			if ka[i] != kb[i] {
				return name, false
			}
		}
	}
	return "", true
}

// TestCrashDrillEquivalence is the tentpole's recovery assertion: a serial
// run interrupted by a crash-and-recover drill ends with exactly the
// committed state of an identical fault-free run. TATP inserts and deletes
// rows (call forwarding), so the key sets genuinely depend on recovery.
func TestCrashDrillEquivalence(t *testing.T) {
	mk := func() *workload.Workload {
		return workload.MustTATP(workload.TATPOptions{Subscribers: 2000})
	}
	const txns = 1500
	// Fault-free twin first: its end-of-run virtual time places the crash
	// mid-run in the drill.
	ref := crashDrillEngine(t, mk())
	refRes, err := ref.Run(RunOptions{Transactions: txns, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if refRes.Aborted != 0 {
		t.Fatalf("serial runs must not abort, got %d", refRes.Aborted)
	}
	want := ref.TableKeySets()

	drill := crashDrillEngine(t, mk())
	sched, err := fault.NewSchedule(fault.Machine{Sockets: 2, Devices: 4},
		fault.CrashAndRecover(refRes.VirtualTime/2))
	if err != nil {
		t.Fatal(err)
	}
	drillRes, err := drill.Run(RunOptions{Transactions: txns, Seed: 11, Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	if drillRes.Committed != refRes.Committed {
		t.Errorf("committed diverged: drill %d, fault-free %d", drillRes.Committed, refRes.Committed)
	}
	got := drill.TableKeySets()
	if where, ok := keySetsEqual(want, got); !ok {
		t.Errorf("post-recovery state differs from the fault-free run at %s", where)
	}
}

// TestCrashAndRecoverCentralLog exercises the drill's central-log path (the
// non-shared-nothing designs have no island wiring).
func TestCrashAndRecoverCentralLog(t *testing.T) {
	mk := func() *workload.Workload {
		return workload.MustTATP(workload.TATPOptions{Subscribers: 1000})
	}
	lc := wal.DefaultConfig()
	lc.Keep = 0
	build := func() *Engine {
		e, err := New(Config{
			Design: Centralized, Workload: mk(), Topology: topology.Small(), LogConfig: &lc,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	ref := build()
	if _, err := ref.Run(RunOptions{Transactions: 800, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	want := ref.TableKeySets()

	e := build()
	if _, err := e.Run(RunOptions{Transactions: 800, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	stats, err := e.CrashAndRecover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Redone == 0 || stats.WinnerTxns == 0 {
		t.Fatalf("recovery did nothing: %+v", stats)
	}
	if where, ok := keySetsEqual(want, e.TableKeySets()); !ok {
		t.Errorf("central-log recovery state differs from the fault-free run at %s", where)
	}
}

// TestRecoveryAcrossDeviceFailureAndLevelChange (satellite 3): records
// written before a device failure survive the re-homing level change and
// replay from the re-bound logs.
func TestRecoveryAcrossDeviceFailureAndLevelChange(t *testing.T) {
	wl := workload.MultisiteUpdate(2000, 0)
	lc := wal.DefaultConfig()
	lc.Keep = 0
	prof, _ := topology.ProfileByName("chiplet-2s4d")
	e, err := New(Config{
		Design:       SharedNothing,
		IslandLevel:  topology.LevelDie,
		Workload:     wl,
		Topology:     prof.Build(),
		DeviceLayout: "nvme-per-socket",
		LogConfig:    &lc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(RunOptions{Transactions: 200, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	w1 := e.snap.wiring
	var tail wal.LSN
	for i := 0; i < w1.logs.NumLogs(); i++ {
		tail += w1.logs.Log(i).Tail()
	}
	if tail == 0 {
		t.Fatal("no records before the failure")
	}
	if err := e.FailDevice(0); err != nil {
		t.Fatal(err)
	}
	// Die islands keep their core sets across the same-level rebuild, so the
	// logs — with their records — are reused and rebound off the dead device.
	w2 := e.buildWiring(topology.LevelDie, w1.epoch+1, w1)
	if w2.reboundDevices == 0 {
		t.Fatal("no log was rebound off the failed device")
	}
	stores := make(map[string]wal.RowStore)
	replayed := make(map[string]mapStore)
	for _, spec := range wl.TableSpecs() {
		ms := make(mapStore)
		stores[spec.Name] = ms
		replayed[spec.Name] = ms
	}
	redone := 0
	for i := 0; i < w2.logs.NumLogs(); i++ {
		lg := w2.logs.Log(i)
		stats, err := wal.Recover(lg.Records(), lg.Durable(), false, stores)
		if err != nil {
			t.Fatal(err)
		}
		redone += stats.Redone
		if d := lg.Device(); d == nil || d.Failed() {
			t.Errorf("island %d log still on a failed device after the re-home", i)
		}
	}
	if redone == 0 {
		t.Fatal("recovery across the device failure redid nothing")
	}
	for i := 0; i < w2.logs.NumLogs(); i++ {
		for _, rec := range w2.logs.Log(i).Records() {
			if rec.Type != wal.Update {
				continue
			}
			if ms, ok := replayed[rec.Table]; ok {
				if _, ok := ms[rec.Key]; !ok {
					t.Fatalf("update record %s/%v did not survive the re-home", rec.Table, rec.Key)
				}
			}
		}
	}
	e.Devices().ResetFaults()
}

// TestFaultFreeRunsBitIdentical asserts attaching no schedule changes
// nothing: the run with a nil Faults field is byte-for-byte the run before
// this subsystem existed (acceptance criterion: fault-free bit-identity).
func TestFaultFreeRunsBitIdentical(t *testing.T) {
	run := func(faults *fault.Schedule) *Result {
		e := deviceEngine(t, "nvme-per-socket", topology.LevelDie)
		res, err := e.Run(RunOptions{Transactions: 500, Seed: 7, Faults: faults})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(nil)
	empty, err := fault.NewSchedule(fault.Machine{Sockets: 2, Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := run(empty)
	if a.VirtualTime != b.VirtualTime || a.Committed != b.Committed || a.ThroughputTPS != b.ThroughputTPS {
		t.Errorf("empty schedule changed the run: %v/%d vs %v/%d",
			a.VirtualTime, a.Committed, b.VirtualTime, b.Committed)
	}
}
