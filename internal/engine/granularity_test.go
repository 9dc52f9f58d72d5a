package engine

import (
	"math"
	"testing"
	"time"

	"atrapos/internal/core"
	"atrapos/internal/fault"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/workload"
)

// granWindow is the compressed monitoring window of the granularity tests.
const granWindow = vclock.Nanos(time.Millisecond)

// adaptiveGranEngine builds an adaptive parametric shared-nothing engine on
// the given profile, starting at the given level.
func adaptiveGranEngine(t *testing.T, profile string, start topology.Level, wl *workload.Workload) *Engine {
	t.Helper()
	prof, ok := topology.ProfileByName(profile)
	if !ok {
		t.Fatalf("unknown profile %s", profile)
	}
	e, err := New(Config{
		Design:      SharedNothing,
		IslandLevel: start,
		Workload:    wl,
		Topology:    prof.Build(),
		Adaptive:    true,
		AdaptiveInterval: core.IntervalConfig{
			Initial: granWindow, Max: 4 * granWindow,
		},
		TimeCompression: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// driftAcrossCrossover is the fig-adaptive-granularity workload shape: 0%
// multisite for the first half of the run, 100% for the second.
func driftAcrossCrossover(rows int, half vclock.Nanos) *workload.Workload {
	return workload.MultisiteUpdateDrifting(rows, func(at vclock.Nanos) int {
		if at < half {
			return 0
		}
		return 100
	})
}

// staticBestLevel measures every island level the profile's machine
// distinguishes at a fixed multisite percentage and returns the winner — the
// fig-islands primitive the adaptive engine is asserted against.
func staticBestLevel(t *testing.T, profile string, pct int) topology.Level {
	t.Helper()
	prof, _ := topology.ProfileByName(profile)
	best, bestTPS := topology.Level(0), -1.0
	for _, level := range prof.Build().DistinctLevels() {
		e, err := New(Config{
			Design:      SharedNothing,
			IslandLevel: level,
			Workload:    workload.MultisiteUpdate(8000, pct),
			Topology:    prof.Build(),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(RunOptions{Transactions: 1000, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if res.ThroughputTPS > bestTPS {
			bestTPS = res.ThroughputTPS
			best = level
		}
	}
	return best
}

// TestAdaptiveGranularityTracksStaticBest drives the multisite share across
// the crossover and asserts the engine converges to the statically-best
// island level on either side: the level in force just before the drift
// matches the fig-islands winner at 0% multisite, and the final level matches
// the winner at 100%.
func TestAdaptiveGranularityTracksStaticBest(t *testing.T) {
	const profile = "2s-fc"
	half := 30 * granWindow
	e := adaptiveGranEngine(t, profile, topology.LevelSocket, driftAcrossCrossover(8000, half))
	res, err := e.Run(RunOptions{
		Duration: 2 * half, Transactions: 200_000,
		Seed: 7, SampleWindow: granWindow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LevelChanges) < 2 {
		t.Fatalf("expected at least two level changes across the drift, got %+v", res.LevelChanges)
	}
	wantLow := staticBestLevel(t, profile, 0)
	wantHigh := staticBestLevel(t, profile, 100)
	if !(wantLow < wantHigh) {
		t.Fatalf("profile %s lost its crossover: best %v at 0%%, %v at 100%%", profile, wantLow, wantHigh)
	}
	// The level in force at the end of the low-multisite phase.
	levelAt := func(at vclock.Nanos) topology.Level {
		level := topology.LevelSocket // starting level
		for _, lc := range res.LevelChanges {
			if lc.At <= at {
				level = lc.To
			}
		}
		return level
	}
	if got := levelAt(half); got != wantLow {
		t.Errorf("level before the drift = %v, statically best at 0%% is %v (changes: %+v)",
			got, wantLow, res.LevelChanges)
	}
	if got := res.IslandLevel; got != wantHigh.String() {
		t.Errorf("final level = %v, statically best at 100%% is %v (changes: %+v)",
			got, wantHigh, res.LevelChanges)
	}
	if e.TopologyEpoch() != uint64(len(res.LevelChanges)) {
		t.Errorf("topology epoch %d should count the %d re-wirings", e.TopologyEpoch(), len(res.LevelChanges))
	}
	// The run kept committing throughout: every re-wiring happened off the
	// hot path, concurrently with execution.
	if res.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	for _, lc := range res.LevelChanges {
		if lc.AffectedCores == 0 || lc.Cost < 0 {
			t.Errorf("level change %+v should charge a positive cost to its affected cores", lc)
		}
		// Every change carries the scorer's explanation: the winner prices the
		// level switched to, each breakdown's five terms add up to its total,
		// and a runner-up, where one was scored, is not cheaper than the winner.
		w, ru := lc.WinnerScores, lc.RunnerUpScores
		if w.Level != lc.To {
			t.Errorf("%v->%v: winner breakdown prices %v, not the level switched to", lc.From, lc.To, w.Level)
		}
		for _, b := range []core.LevelBreakdown{w, ru} {
			sum := b.Locality + b.TxnState + b.Commit + b.Comm
			if b.Level.Valid() && math.Abs(sum-b.Total) > 1e-6 {
				t.Errorf("%v->%v: %v breakdown terms sum to %.9f, total says %.9f", lc.From, lc.To, b.Level, sum, b.Total)
			}
		}
		if ru.Level.Valid() && ru.Total < w.Total {
			t.Errorf("%v->%v: runner-up %v (%.6f) is cheaper than winner %v (%.6f)",
				lc.From, lc.To, ru.Level, ru.Total, w.Level, w.Total)
		}
	}
}

// TestAdaptiveGranularityPartialPause: on a chiplet machine a die-to-machine
// merge touches only the die home cores — the other cores never pause, which
// is the "no global stall" property of the re-wiring pipeline.
func TestAdaptiveGranularityPartialPause(t *testing.T) {
	wl := workload.MultisiteUpdateDrifting(8000, func(vclock.Nanos) int { return 100 })
	e := adaptiveGranEngine(t, "chiplet-2s4d", topology.LevelDie, wl)
	res, err := e.Run(RunOptions{
		Duration: 20 * granWindow, Transactions: 100_000,
		Seed: 7, SampleWindow: granWindow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LevelChanges) == 0 {
		t.Fatal("constant 100% multisite should trigger a die->machine re-wiring")
	}
	first := res.LevelChanges[0]
	if first.To != topology.LevelMachine {
		t.Errorf("expected a change to machine granularity, got %+v", first)
	}
	total := e.Topology().NumCores()
	if first.AffectedCores >= total {
		t.Errorf("die->machine merge paused %d of %d cores; only the die homes own partitions",
			first.AffectedCores, total)
	}
}

// TestMonitoringOnlyNeverRewires: Monitoring without Adaptive collects the
// multisite share but must never change the island level.
func TestMonitoringOnlyNeverRewires(t *testing.T) {
	prof, _ := topology.ProfileByName("2s-fc")
	e, err := New(Config{
		Design:      SharedNothing,
		IslandLevel: topology.LevelSocket,
		Workload:    workload.MultisiteUpdate(8000, 100),
		Topology:    prof.Build(),
		Monitoring:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(RunOptions{Transactions: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LevelChanges) != 0 || res.IslandLevel != "socket" || e.TopologyEpoch() != 0 {
		t.Errorf("monitoring-only run re-wired the machine: level=%s changes=%+v epoch=%d",
			res.IslandLevel, res.LevelChanges, e.TopologyEpoch())
	}
}

// TestBuildWiringReuse: islands whose core sets survive a level change keep
// their write-ahead logs. After a socket failure the surviving socket's
// island is exactly the machine island, so a socket->machine re-wiring
// carries the log (and its records) over; the transaction manager is shared
// between any two sub-machine levels.
func TestBuildWiringReuse(t *testing.T) {
	prof, _ := topology.ProfileByName("2s-fc")
	top := prof.Build()
	e, err := New(Config{
		Design:      SharedNothing,
		IslandLevel: topology.LevelSocket,
		Workload:    workload.MultisiteUpdate(3000, 0),
		Topology:    top,
	})
	if err != nil {
		t.Fatal(err)
	}
	cur := e.snap.wiring
	if cur == nil || cur.epoch != 0 {
		t.Fatalf("fresh wiring should have epoch 0: %+v", cur)
	}
	if err := top.FailSocket(1); err != nil {
		t.Fatal(err)
	}
	w := e.buildWiring(topology.LevelMachine, cur.epoch+1, cur)
	if len(w.sites) != 1 {
		t.Fatalf("machine wiring after failure has %d sites, want 1", len(w.sites))
	}
	if w.reusedLogs != 1 || w.rebuiltLogs != 0 {
		t.Errorf("the surviving socket island's log should be reused: reused=%d rebuilt=%d",
			w.reusedLogs, w.rebuiltLogs)
	}
	if w.logs.Log(0) != cur.logs.Log(0) {
		t.Error("machine island log is not the surviving socket's log instance")
	}
	// Sub-machine to sub-machine keeps the transaction manager.
	w2 := e.buildWiring(topology.LevelCore, cur.epoch+1, cur)
	if w2.txnMgr != cur.txnMgr {
		t.Error("socket->core re-wiring should keep the per-socket transaction state")
	}
	if w.txnMgr == cur.txnMgr {
		t.Error("socket->machine re-wiring needs the central transaction state")
	}
}

// TestAdaptiveGranularityRewiresOffDeadSocket: a socket failure between
// planner epochs triggers a re-wiring, and afterwards no site (and no
// partition) is homed on a dead core — even though the level may not change.
func TestAdaptiveGranularityRewiresOffDeadSocket(t *testing.T) {
	wl := workload.MultisiteUpdateDrifting(8000, func(vclock.Nanos) int { return 0 })
	e := adaptiveGranEngine(t, "subnuma-4s2d", topology.LevelDie, wl)
	sched, err := fault.NewSchedule(fault.Machine{Sockets: e.Topology().Sockets()}, fault.FailSocket(10*granWindow, 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(RunOptions{
		Duration: 30 * granWindow, Transactions: 100_000,
		Seed: 7, SampleWindow: granWindow, Faults: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	top := e.Topology()
	w := e.snap.wiring
	if wiringStale(w, top) {
		t.Fatalf("post-failure wiring still homes a site on the dead socket: %+v", w.sites)
	}
	for _, cores := range w.siteCores {
		for _, c := range cores {
			if !top.Alive(c.Socket) {
				t.Errorf("site member core %d is on dead socket %d", c.ID, c.Socket)
			}
		}
	}
	if err := e.Placement().ValidateAlive(top); err != nil {
		t.Errorf("post-failure placement routes to dead hardware: %v", err)
	}
	if e.TopologyEpoch() == 0 {
		t.Error("the failure should have bumped the topology epoch")
	}
	if res.Committed == 0 {
		t.Fatal("run should keep committing after the failure")
	}
}
