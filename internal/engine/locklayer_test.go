package engine

import (
	"slices"
	"testing"

	"atrapos/internal/lock"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/workload"
)

// TestLockLayerKeepsVirtualTime pins absolute virtual-time numbers of the
// designs that cross package lock (central manager with and without SLI,
// partition-local tables under PLP, HWAware, ATraPos and shared-nothing at
// die, core and socket grain) and, between them, every row of the design
// table: owner routing with and without the monitor, island routing with and
// without 2PC, the coordinator with inserts, deletes and updates.
// The determinism tests compare one fresh engine with another, so a lock-layer
// change that shifted every result identically — a different bucket for a
// resource, one more cache-line access per release, a changed ReleaseAll
// count — would pass them and fail only in the repo benchmark. The numbers
// were captured at the commit before lock.Table got its held list; a change
// that moves them on purpose re-captures them and says so. The rows after
// shared-nothing-die were captured at the commit before the three priced
// execute paths became one.
func TestLockLayerKeepsVirtualTime(t *testing.T) {
	chiplet := func() *topology.Topology {
		prof, _ := topology.ProfileByName("chiplet-2s4d")
		return prof.Build()
	}
	cases := []struct {
		name      string
		cfg       Config
		wl        *workload.Workload // nil: TATP at 4,000 subscribers
		committed int64
		virtual   vclock.Nanos // Result.VirtualTime
		busy      vclock.Nanos // sum of Result.Breakdown.ByComp over all components
		locking   vclock.Nanos // Result.Breakdown.ByComp[vclock.Locking]
	}{
		{"centralized", Config{Design: Centralized, Topology: smallTopology()}, nil, 3000, 3740190, 54394134, 8426640},
		{"centralized-no-sli", Config{Design: Centralized, Topology: smallTopology(), DisableSLI: true}, nil, 3000, 4237750, 60775814, 14808320},
		{"plp", Config{Design: PLP, Topology: smallTopology()}, nil, 3000, 8936920, 126303310, 425280},
		{"atrapos", Config{Design: ATraPos, Topology: smallTopology()}, nil, 3000, 8138840, 114832590, 425280},
		{"shared-nothing-die", Config{Design: SharedNothing, IslandLevel: topology.LevelDie, Topology: chiplet()}, nil, 3000, 2160461, 57693784, 8286640},
		{"hw-aware", Config{Design: HWAware, Topology: smallTopology()}, nil, 3000, 8138840, 114832590, 425280},
		{"atrapos-monitoring", Config{Design: ATraPos, Topology: smallTopology(), Monitoring: true}, nil, 3000, 8142605, 114885750, 425280},
		{"shared-nothing-core-2pc", Config{Design: SharedNothing, IslandLevel: topology.LevelCore, Topology: smallTopology()}, workload.MultisiteUpdate(4000, 50), 3000, 74682604, 1156292972, 755383460},
		{"shared-nothing-socket-2pc", Config{Design: SharedNothing, IslandLevel: topology.LevelSocket, Topology: smallTopology()}, workload.MultisiteUpdate(4000, 50), 3000, 34429101, 535040077, 177567157},
		{"centralized-updates", Config{Design: Centralized, Topology: smallTopology()}, updateMix(), 3000, 8192564, 97890938, 15297040},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Workload = tc.wl
			if cfg.Workload == nil {
				cfg.Workload = workload.MustTATP(workload.TATPOptions{Subscribers: 4000})
			}
			res, err := MustNew(cfg).Run(RunOptions{Transactions: 3000, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			var busy vclock.Nanos
			for _, ns := range res.Breakdown.ByComp {
				busy += ns
			}
			got := [4]int64{res.Committed, int64(res.VirtualTime), int64(busy), int64(res.Breakdown.ByComp[vclock.Locking])}
			want := [4]int64{tc.committed, int64(tc.virtual), int64(tc.busy), int64(tc.locking)}
			if got != want {
				t.Errorf("{committed, virtual, busy, locking} = %v, want %v", got, want)
			}
		})
	}
}

// TestPricedRunLeavesNoLocks pins the premise package lock is built on: a
// priced run has one transaction in flight, and every path out of execute
// releases everything it holds, so after a Run the central lock table and
// every partition-local table of the final snapshot are empty. It runs the
// central manager with SLI, PLP's partition-local tables, shared-nothing with
// 2PC across sockets, and an adaptive run whose repartitionings swap runtimes.
func TestPricedRunLeavesNoLocks(t *testing.T) {
	tatp := workload.MustTATP(workload.TATPOptions{Subscribers: 4000})
	static := func(cfg Config) func(*testing.T) (Config, RunOptions) {
		return func(*testing.T) (Config, RunOptions) { return cfg, RunOptions{Transactions: 3000, Seed: 42} }
	}
	cases := []struct {
		name  string
		build func(*testing.T) (Config, RunOptions)
	}{
		{"centralized", static(Config{Design: Centralized, Workload: tatp, Topology: smallTopology()})},
		{"plp", static(Config{Design: PLP, Workload: tatp, Topology: smallTopology()})},
		{"shared-nothing-socket-2pc", static(Config{Design: SharedNothing, IslandLevel: topology.LevelSocket, Workload: workload.MultisiteUpdate(4000, 50), Topology: smallTopology()})},
		{"adaptive-drift-atrapos", adaptiveDriftRun},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, opts := tc.build(t)
			e := MustNew(cfg)
			res, err := e.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed == 0 {
				t.Fatal("run committed nothing")
			}
			if e.centralLocks != nil {
				if n := e.centralLocks.Table().Len(); n != 0 {
					t.Errorf("central lock table holds %d resources after the run", n)
				}
			}
			for ti, lms := range e.snap.locks {
				for i, lm := range lms {
					if n := lm.Table().Len(); n != 0 {
						t.Errorf("table %q partition %d: lock table holds %d resources after the run", e.wl.Tables[ti].Schema.Name, i, n)
					}
				}
			}
		})
	}
}

// TestInstallBuildsFreshLockTables: a migration builds its lock tables fresh.
// After an ATraPos repartitioning run and after an island-level change no
// partition lock table of the engine's first snapshot is one of the installed
// snapshot's, not even a table the plans never touched, and the monitor's
// arrays follow the installed placement's bounds table for table.
func TestInstallBuildsFreshLockTables(t *testing.T) {
	drift, driftOpts := adaptiveDriftRun(t)
	for _, tc := range []struct {
		name     string
		cfg      Config
		opts     RunOptions
		migrated func(*Result) bool
	}{
		{"repartitioning", drift, driftOpts, func(r *Result) bool { return r.Repartitions > 0 }},
		{"level-change", Config{
			Design: SharedNothing, IslandLevel: topology.LevelDie, Topology: chipletTopology(),
			Workload: workload.MultisiteUpdateDrifting(8000, func(vclock.Nanos) int { return 100 }),
			Adaptive: true, AdaptiveInterval: adaptiveTestInterval, TimeCompression: 1000,
		}, RunOptions{Duration: 20 * granWindow, Transactions: 100_000, Seed: 7, SampleWindow: granWindow},
			func(r *Result) bool { return len(r.LevelChanges) > 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := MustNew(tc.cfg)
			first := make(map[*lock.LocalManager]bool)
			for _, lms := range e.snap.locks {
				for _, lm := range lms {
					first[lm] = true
				}
			}
			res, err := e.Run(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.migrated(res) {
				t.Fatal("the run never migrated")
			}
			for ti, lms := range e.snap.locks {
				for i, lm := range lms {
					if first[lm] {
						t.Errorf("table %q partition %d: lock table carried over from the first snapshot", e.wl.Tables[ti].Schema.Name, i)
					}
				}
			}
			for name, tp := range e.snap.placement.Tables {
				if got := e.adaptive.monitor.Bounds(name); !slices.Equal(got, tp.Bounds) {
					t.Errorf("table %q: monitor bounds %v, installed placement %v", name, got, tp.Bounds)
				}
			}
		})
	}
}

// updateMix is TATP restricted to its four writing classes: updates, inserts
// that may collide and deletes that may miss, so every write outcome —
// applied, turned into an update, or a logged no-op — takes its turn.
func updateMix() *workload.Workload {
	return workload.MustTATP(workload.TATPOptions{Subscribers: 4000, Mix: map[string]float64{
		workload.TATPUpdSubData:  1,
		workload.TATPUpdLocation: 1,
		workload.TATPInsCallFwd:  1,
		workload.TATPDelCallFwd:  1,
	}})
}
