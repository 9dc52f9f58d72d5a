package engine

import (
	"testing"

	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/workload"
)

// TestLockLayerKeepsVirtualTime pins absolute virtual-time numbers of the
// designs that cross package lock (central manager with and without SLI,
// partition-local tables under PLP, ATraPos and die-grained shared-nothing).
// The determinism tests compare one fresh engine with another, so a lock-layer
// change that shifted every result identically — a different bucket for a
// resource, one more cache-line access per release, a changed ReleaseAll
// count — would pass them and fail only in the repo benchmark. The numbers
// were captured at the commit before lock.Table got its held list; a change
// that moves them on purpose re-captures them and says so.
func TestLockLayerKeepsVirtualTime(t *testing.T) {
	chiplet := func() *topology.Topology {
		prof, _ := topology.ProfileByName("chiplet-2s4d")
		return prof.Build()
	}
	cases := []struct {
		name      string
		cfg       Config
		committed int64
		virtual   vclock.Nanos // Result.VirtualTime
		busy      vclock.Nanos // sum of Result.Breakdown.ByComp over all components
		locking   vclock.Nanos // Result.Breakdown.ByComp[vclock.Locking]
	}{
		{"centralized", Config{Design: Centralized, Topology: smallTopology()}, 3000, 3740190, 54394134, 8426640},
		{"centralized-no-sli", Config{Design: Centralized, Topology: smallTopology(), DisableSLI: true}, 3000, 4237750, 60775814, 14808320},
		{"plp", Config{Design: PLP, Topology: smallTopology()}, 3000, 8936920, 126303310, 425280},
		{"atrapos", Config{Design: ATraPos, Topology: smallTopology()}, 3000, 8138840, 114832590, 425280},
		{"shared-nothing-die", Config{Design: SharedNothing, IslandLevel: topology.LevelDie, Topology: chiplet()}, 3000, 2160461, 57693784, 8286640},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Workload = workload.MustTATP(workload.TATPOptions{Subscribers: 4000})
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
