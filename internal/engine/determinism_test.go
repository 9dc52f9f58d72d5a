package engine

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"atrapos/internal/core"
	"atrapos/internal/fault"
	"atrapos/internal/topology"
	"atrapos/internal/wal"
	"atrapos/internal/workload"
)

func chipletTopology() *topology.Topology {
	prof, _ := topology.ProfileByName("chiplet-2s4d")
	return prof.Build()
}

var adaptiveTestInterval = core.IntervalConfig{Initial: granWindow, Max: 4 * granWindow}

// adaptiveDriftRun is the placement pipeline under a sliding hotspot: ATraPos
// re-bounding the TATP tables every few windows.
func adaptiveDriftRun(t *testing.T) (Config, RunOptions) {
	wl, err := workload.TATPDriftingHotspot(4000, 5*granWindow)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
			Design: ATraPos, Workload: wl, Topology: smallTopology(),
			Adaptive: true, AdaptiveInterval: adaptiveTestInterval, TimeCompression: 1000,
		},
		RunOptions{Duration: 40 * granWindow, Transactions: 200_000, Seed: 5, SampleWindow: granWindow}
}

// granularityFailRestoreRun is the granularity pipeline: the multisite share
// drifts across the crossover while a socket fails and comes back.
func granularityFailRestoreRun(t *testing.T) (Config, RunOptions) {
	sched, err := fault.NewSchedule(fault.Machine{Sockets: 2, Devices: 2},
		fault.FailSocket(5*granWindow, 1),
		fault.RestoreSocket(15*granWindow, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
			Design: SharedNothing, IslandLevel: topology.LevelSocket,
			Workload: driftAcrossCrossover(8000, 20*granWindow), Topology: chipletTopology(),
			DeviceLayout: "nvme-per-socket",
			Adaptive:     true, AdaptiveInterval: adaptiveTestInterval, TimeCompression: 1000,
		},
		RunOptions{Duration: 40 * granWindow, Transactions: 200_000, Seed: 7, SampleWindow: granWindow, Faults: sched}
}

// TestRunIsAFunctionOfSeedAndConfig pins the contract of the single-goroutine
// run loop: a Result depends on nothing but the seed and the configuration.
// Two fresh engines agree field for field, enabling the tracer changes no
// field (it observes virtual time, it never charges any), and neither holds
// only for one host shape — GOMAXPROCS(1) and the host default give the same
// Result.
func TestRunIsAFunctionOfSeedAndConfig(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) (Config, RunOptions)
		// adapts marks cases that must exercise the inline planner.
		adapts bool
	}{
		{
			name: "static-tatp",
			build: func(*testing.T) (Config, RunOptions) {
				return Config{Design: HWAware, Workload: workload.MustTATP(workload.TATPOptions{Subscribers: 4000}), Topology: smallTopology()},
					RunOptions{Transactions: 2000, Seed: 42}
			},
		},
		{name: "adaptive-drift-atrapos", build: adaptiveDriftRun, adapts: true},
		{name: "adaptive-granularity-fail-restore", build: granularityFailRestoreRun, adapts: true},
		{
			name: "coalescing-hotkey",
			build: func(*testing.T) (Config, RunOptions) {
				lc := wal.DefaultConfig()
				lc.CoalesceRecords = 8
				return Config{
					Design: SharedNothing, IslandLevel: topology.LevelDie,
					Workload: workload.ZipfHotkey(4000, 10, 30), Topology: chipletTopology(),
					DeviceLayout: "single-sata", LogConfig: &lc,
				}, RunOptions{Transactions: 3000, Seed: 11}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(tracing bool) *Result {
				cfg, opts := tc.build(t)
				cfg.Tracing = tracing
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := run(false)
			if want.Committed == 0 {
				t.Fatal("run committed nothing")
			}
			if tc.adapts && want.Repartitions == 0 {
				t.Fatal("adaptive case never repartitioned; the inline planner was not exercised")
			}
			check := func(label string) {
				if got := run(false); !reflect.DeepEqual(want, got) {
					t.Errorf("%s: a second fresh engine gave a different Result:\n first  %+v\n second %+v", label, want, got)
				}
				if got := run(true); !reflect.DeepEqual(want, got) {
					t.Errorf("%s: the traced Result differs from the untraced one:\n untraced %+v\n traced   %+v", label, want, got)
				}
			}
			check("host GOMAXPROCS")
			prev := runtime.GOMAXPROCS(1)
			defer runtime.GOMAXPROCS(prev)
			check("GOMAXPROCS(1)")
		})
	}
}

// TestRunRejectsWorkers: the remnant field of the goroutine-pool run loop is
// accepted at 0 or 1 and refused above, so a stale caller is told rather than
// silently serialized.
func TestRunRejectsWorkers(t *testing.T) {
	e := MustNew(Config{Design: PLP, Workload: workload.SingleRowRead(100), Topology: smallTopology()})
	for _, n := range []int{0, 1} {
		if _, err := e.Run(RunOptions{Transactions: 10, Workers: n}); err != nil {
			t.Errorf("Workers=%d should be accepted: %v", n, err)
		}
	}
	if _, err := e.Run(RunOptions{Transactions: 10, Workers: 2}); err == nil || !strings.Contains(err.Error(), "Workers=2") {
		t.Errorf("Workers=2 should be rejected, got err = %v", err)
	}
}

// TestOneRecordPerMigration: both adaptive designs leave one RepartitionDiff
// per migration they count — a repartitioning of the ATraPos placement or a
// re-wiring of the shared-nothing design. A repartitioning moves partitions
// and carries no level; a re-wiring names both levels, its winner is the
// level it moved to, and it changes the level, re-binds a log device or moves
// partitions (a rebuild at the same level after a socket fails or returns).
func TestOneRecordPerMigration(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) (Config, RunOptions)
	}{
		{"atrapos", adaptiveDriftRun},
		{"shared-nothing", granularityFailRestoreRun},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, opts := tc.build(t)
			res, err := MustNew(cfg).Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Repartitions == 0 || len(res.RepartitionDiffs) != int(res.Repartitions) {
				t.Fatalf("%d records for %d migrations, want one per migration and at least one",
					len(res.RepartitionDiffs), res.Repartitions)
			}
			for i, d := range res.RepartitionDiffs {
				var ok bool
				if cfg.Design == SharedNothing {
					ok = d.From != 0 && d.WinnerScores.Level == d.To &&
						(d.From != d.To || d.ReboundDevices > 0 || d.MovedPartitions > 0)
				} else {
					ok = d.From == 0 && d.To == 0 && d.MovedPartitions > 0
				}
				if !ok {
					t.Errorf("record %d does not describe its migration: %+v", i, d)
				}
			}
		})
	}
}
