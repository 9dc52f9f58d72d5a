package engine

import (
	"fmt"
	"testing"

	"atrapos/internal/fault"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/workload"
)

// TestRepartitioningKeepsVirtualTime pins absolute numbers of the two adaptive
// configurations of TestRunIsAFunctionOfSeedAndConfig and of ATraPos riding
// out a socket failure and restore. Every virtual nanosecond
// of a repartitioning is billed from a row count the B-tree layer returns
// (storage.Table.Split/Merge/Repartition's moved), so a change to how sub-trees
// are cut and joined that miscounted one piece would shift RepartitionTime, the
// planner boundaries after it and the final bounds — identically on two fresh
// engines, which is all the determinism test compares. The numbers were captured
// at the commit before btree repartitioned by path split and join (the
// atrapos-socket-fail-restore row at the last commit that fired socket
// failures through closures instead of the fault schedule); a change that
// moves them on purpose re-captures them and says so. The level changes of
// adaptive-granularity-fail-restore count their moved partitions since every
// migration leaves a RepartitionDiff; before, that design recorded none and
// the sum read 0.
func TestRepartitioningKeepsVirtualTime(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) (Config, RunOptions)

		committed    int64
		virtual      vclock.Nanos // Result.VirtualTime
		repartitions int64
		repartTime   vclock.Nanos // Result.RepartitionTime: per-action cost + per-row cost x rows moved, summed
		movedParts   int          // sum of RepartitionDiffs[i].MovedPartitions
		bounds       string       // final Bounds of every table, sorted by name
	}{
		{
			name: "adaptive-drift-atrapos", build: adaptiveDriftRun,
			committed: 41148, virtual: 40003578, repartitions: 11, repartTime: 149113, movedParts: 163,
			bounds: "AccessInfo[0 1000 2000 3000 4000 5000 6000 7000 8000 9000 10000 11000 12000 13000 14000 15000];" +
				"CallForwarding[0 24000 48000 72000 96000 120000 144000 168000 192000 216000 240000 264000 288000 312000 336000 360000];" +
				"SpecialFacility[0 1000 2000 3000 4000 5000 6000 7000 8000 9000 10000 11000 12000 13000 14000 15000];" +
				"Subscriber[0 382 992 1256 1362 1471 1579 1692 1801 1927 2095 2370 2626 2912 3239];",
		},
		{
			name: "adaptive-granularity-fail-restore", build: granularityFailRestoreRun,
			committed: 9312, virtual: 40037746, repartitions: 4, repartTime: 105025, movedParts: 81,
			bounds: "mupd[0];",
		},
		{
			name: "atrapos-socket-fail-restore", build: atraposFailRestoreRun,
			committed: 41126, virtual: 30003428, repartitions: 5, repartTime: 103848, movedParts: 75,
			bounds: "AccessInfo[0];CallForwarding[0];SpecialFacility[0];" +
				"Subscriber[0 278 556 840 1099 1351 1575 1846 2084 2364 2625 2897 3152 3431 3683 3921];",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, opts := tc.build(t)
			e := MustNew(cfg)
			res, err := e.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			moved := 0
			for _, d := range res.RepartitionDiffs {
				moved += d.MovedPartitions
			}
			got := [5]int64{res.Committed, int64(res.VirtualTime), res.Repartitions, int64(res.RepartitionTime), int64(moved)}
			want := [5]int64{tc.committed, int64(tc.virtual), tc.repartitions, int64(tc.repartTime), int64(tc.movedParts)}
			if got != want {
				t.Errorf("{committed, virtual, repartitions, repartition time, moved partitions} = %v, want %v", got, want)
			}
			bounds := ""
			for _, tbl := range e.Store().Tables() {
				bounds += fmt.Sprintf("%s%v;", tbl.Name(), tbl.Bounds())
			}
			if bounds != tc.bounds {
				t.Errorf("final bounds = %q, want %q", bounds, tc.bounds)
			}
		})
	}
}

// atraposFailRestoreRun is examples/adaptive's processor-failure scenario at
// test size: ATraPos adapting its placement while the last socket fails and
// comes back.
func atraposFailRestoreRun(t *testing.T) (Config, RunOptions) {
	top := smallTopology()
	last := topology.SocketID(top.Sockets() - 1)
	sched, err := fault.NewSchedule(fault.Machine{Sockets: top.Sockets()},
		fault.FailSocket(10*granWindow, last),
		fault.RestoreSocket(20*granWindow, last),
	)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.MustTATP(workload.TATPOptions{Subscribers: 4000, Mix: map[string]float64{"GetSubData": 1}})
	return Config{
			Design: ATraPos, Workload: wl, Topology: top,
			Adaptive: true, AdaptiveInterval: adaptiveTestInterval, TimeCompression: 1000,
		},
		RunOptions{Duration: 30 * granWindow, Transactions: 200_000, Seed: 5, SampleWindow: granWindow, Faults: sched}
}
