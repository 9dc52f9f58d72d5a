package engine

import (
	"testing"

	"atrapos/internal/core"
	"atrapos/internal/fault"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/wal"
	"atrapos/internal/workload"
)

// coalescedCrashDrillEngine is crashDrillEngine with the write-combining
// accumulator on: full retention for the drill, and a threshold above
// the per-transaction distinct-key count so flushes genuinely batch across
// commits instead of degrading to one per transaction.
func coalescedCrashDrillEngine(t *testing.T, wl *workload.Workload) *Engine {
	t.Helper()
	prof, _ := topology.ProfileByName("chiplet-2s4d")
	lc := wal.DefaultConfig()
	lc.Keep = 0
	lc.CoalesceRecords = 64
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

// TestCrashDrillEquivalenceCoalesced is the tentpole's recovery assertion
// with write-combining on: a serial run interrupted by a crash-and-recover
// drill ends with exactly the committed state of an identical fault-free run,
// even though the log the drill replays holds folded net deltas rather than
// the full record stream. The coalesced fault-free run must also match the
// plain log's committed state — coalescing changes what reaches the device,
// never what the transactions did.
func TestCrashDrillEquivalenceCoalesced(t *testing.T) {
	workloads := map[string]func() *workload.Workload{
		// TATP inserts and deletes rows (call forwarding), so key sets
		// genuinely depend on recovery.
		"tatp": func() *workload.Workload {
			return workload.MustTATP(workload.TATPOptions{Subscribers: 2000})
		},
		// The group-commit workload: hot-key overwrites and self-canceling
		// delete/insert churn are exactly the records the accumulator folds.
		"zipf-hotkey": func() *workload.Workload {
			return workload.ZipfHotkey(2000, 10, 30)
		},
	}
	const txns = 1500
	for name, mk := range workloads {
		t.Run(name, func(t *testing.T) {
			plain := crashDrillEngine(t, mk())
			plainRes, err := plain.Run(RunOptions{Transactions: txns, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			if plainRes.Aborted != 0 {
				t.Fatalf("serial runs must not abort, got %d", plainRes.Aborted)
			}

			ref := coalescedCrashDrillEngine(t, mk())
			refRes, err := ref.Run(RunOptions{Transactions: txns, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			if refRes.Log.CoalescedRecords == 0 {
				t.Fatal("the coalesced run folded nothing; the drill would not exercise net-delta recovery")
			}
			if refRes.Committed != plainRes.Committed {
				t.Errorf("coalescing changed the committed count: %d vs plain %d", refRes.Committed, plainRes.Committed)
			}
			if where, ok := keySetsEqual(plain.TableKeySets(), ref.TableKeySets()); !ok {
				t.Errorf("coalescing changed the committed state at %s", where)
			}
			want := ref.TableKeySets()

			drill := coalescedCrashDrillEngine(t, mk())
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
			if where, ok := keySetsEqual(want, drill.TableKeySets()); !ok {
				t.Errorf("post-recovery state differs from the fault-free run at %s", where)
			}
		})
	}
}

// drainedLogs asserts every log the engine's wirings made ended the run fully
// drained: the accumulator holds nothing, so everything appended is durable.
// Run end, level changes and the crash drill all guarantee this.
func drainedLogs(t *testing.T, e *Engine) {
	t.Helper()
	for i, l := range e.logs {
		if l.Durable() != l.Tail() {
			t.Errorf("log %d not drained: durable %d, tail %d", i, l.Durable(), l.Tail())
		}
	}
}

// TestCoalescerDrainAcrossLevelChangesAndRehoming drives the adaptive
// planner's two accumulator-drain paths at once: the workload drifts from 0%
// to 100% multisite, forcing level changes that rebuild the log set, and a
// device fails mid-run, forcing a re-homing rebind — both must drain the
// write-combining buffers before any log changes hands, so no buffered net
// delta straddles a re-wiring and nothing ends the run undurable.
func TestCoalescerDrainAcrossLevelChangesAndRehoming(t *testing.T) {
	prof, ok := topology.ProfileByName("chiplet-2s4d")
	if !ok {
		t.Fatal("chiplet-2s4d missing")
	}
	wl := workload.MultisiteUpdateDrifting(8000, func(at vclock.Nanos) int {
		if at < 12*granWindow {
			return 0
		}
		return 100
	})
	lc := wal.DefaultConfig()
	lc.CoalesceRecords = 64
	e, err := New(Config{
		Design:       SharedNothing,
		IslandLevel:  topology.LevelCore,
		Workload:     wl,
		Topology:     prof.Build(),
		DeviceLayout: "nvme-per-socket",
		LogConfig:    &lc,
		Adaptive:     true,
		AdaptiveInterval: core.IntervalConfig{
			Initial: granWindow, Max: 4 * granWindow,
		},
		TimeCompression: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fault.NewSchedule(fault.Machine{Sockets: 2, Devices: 2},
		fault.FailDevice(5*granWindow, 0))
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
		t.Fatal("run should keep committing across the device failure and level changes")
	}
	if len(res.RepartitionDiffs) == 0 {
		t.Fatal("the drift never forced a level change; the drain-across-rewiring path was not exercised")
	}
	rebound := 0
	for _, c := range res.RepartitionDiffs {
		rebound += c.ReboundDevices
	}
	if rebound == 0 && e.WiringBindsFailedDevice() {
		t.Error("no re-homing rebind happened and the wiring still references the failed device")
	}
	if e.WiringBindsFailedDevice() {
		t.Error("an island log ended the run bound to the failed device")
	}
	drainedLogs(t, e)
	e.Devices().ResetFaults()
}

// TestCoalescingCommitsAcrossLevelChanges: commits fold into the per-island
// accumulators while the inline granularity planner changes levels and
// re-homes a failed device between transactions. The post-run invariants
// catch a missed drain: every surviving log fully durable, nothing stranded
// in an accumulator.
func TestCoalescingCommitsAcrossLevelChanges(t *testing.T) {
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
	lc := wal.DefaultConfig()
	lc.CoalesceRecords = 64
	e, err := New(Config{
		Design:       SharedNothing,
		IslandLevel:  topology.LevelDie,
		Workload:     wl,
		Topology:     prof.Build(),
		DeviceLayout: "nvme-per-socket",
		LogConfig:    &lc,
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
		fault.DegradeDevice(8*granWindow, 3, 4),
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
		t.Fatal("run should keep committing through coalescing and level changes")
	}
	if res.Log.LogicalRecords == 0 {
		t.Fatal("the drifting update workload appended no logical records")
	}
	if e.WiringBindsFailedDevice() {
		t.Error("an island log ended the run bound to the failed device")
	}
	if err := e.Placement().ValidateAliveDevices(e.Topology(), e.Devices()); err != nil {
		t.Errorf("post-run device binding: %v", err)
	}
	drainedLogs(t, e)
	e.Devices().ResetFaults()
}
