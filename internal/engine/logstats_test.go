package engine

import (
	"testing"

	"atrapos/internal/topology"
	"atrapos/internal/wal"
	"atrapos/internal/workload"
)

// TestBuildWiringRetiredLogStats: a re-wiring that rebuilds island logs must
// capture the dropped logs' activity counters on the new wiring, so the
// engine's cumulative log accounting loses nothing across the rebuild.
func TestBuildWiringRetiredLogStats(t *testing.T) {
	prof, _ := topology.ProfileByName("2s-fc")
	e, err := New(Config{
		Design:      SharedNothing,
		IslandLevel: topology.LevelSocket,
		Workload:    workload.MultisiteUpdate(3000, 10),
		Topology:    prof.Build(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(RunOptions{Transactions: 500, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	before := e.logStats()
	if before.Appends == 0 || before.LogicalRecords == 0 {
		t.Fatalf("run produced no log activity: %+v", before)
	}
	cur := e.state.snapshot().wiring

	// Socket -> core rebuilds every log (no core island matches a socket
	// island's member set), so the retired counters are the whole total.
	w := e.buildWiring(topology.LevelCore, cur.epoch+1, cur)
	if w.reusedLogs != 0 {
		t.Fatalf("socket->core should reuse no logs, reused %d", w.reusedLogs)
	}
	if w.retiredLogStats != before {
		t.Errorf("full rebuild should retire the whole pre-rewire totals:\n  retired %+v\n  before  %+v", w.retiredLogStats, before)
	}

	// A derived-but-never-installed wiring must not have touched the
	// engine's account.
	if got := e.logStats(); got != before {
		t.Errorf("deriving a wiring changed the totals: %+v vs %+v", got, before)
	}
	e.absorbRetiredLogs(w)
	if e.retiredLogStats != before {
		t.Errorf("absorbed account %+v, want the retired totals %+v", e.retiredLogStats, before)
	}
}

// TestBuildWiringRetiredLogStatsPartialReuse: only the logs the re-wiring
// actually drops are retired; a carried-over log keeps counting through the
// live side of logStats, so retired + surviving == the pre-rewire totals
// with no double count.
func TestBuildWiringRetiredLogStatsPartialReuse(t *testing.T) {
	prof, _ := topology.ProfileByName("2s-fc")
	top := prof.Build()
	e, err := New(Config{
		Design:      SharedNothing,
		IslandLevel: topology.LevelSocket,
		Workload:    workload.MultisiteUpdate(3000, 10),
		Topology:    top,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(RunOptions{Transactions: 500, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	before := e.logStats()
	cur := e.state.snapshot().wiring
	if err := top.FailSocket(1); err != nil {
		t.Fatal(err)
	}
	// After the failure the surviving socket's island is exactly the machine
	// island, so socket->machine reuses that log and drops the dead one.
	w := e.buildWiring(topology.LevelMachine, cur.epoch+1, cur)
	if w.reusedLogs != 1 {
		t.Fatalf("expected the surviving socket's log to be reused, reused %d", w.reusedLogs)
	}
	survivor := w.logs.Log(0).Stats()
	if got := w.retiredLogStats.Add(survivor); got != before {
		t.Errorf("retired + surviving should equal the pre-rewire totals:\n  got    %+v\n  before %+v", got, before)
	}
	if w.retiredLogStats == (wal.Stats{}) {
		t.Error("the dead socket's log activity should have been retired")
	}
}

// TestAdaptiveRunLogStatsCumulative is the PR 7 known-approximation
// regression: adaptive level changes rebuild island logs, and before the
// retired-stats account existed, Result.Log lost the dropped logs' counters.
// Every committed transaction of the drifting-update workload appends at
// least one logical write record, so a run whose planner re-wired the
// machine must still report at least one logical record per commit — exactly
// the invariant that under-reporting broke.
func TestAdaptiveRunLogStatsCumulative(t *testing.T) {
	half := 30 * granWindow
	e := adaptiveGranEngine(t, "2s-fc", topology.LevelSocket, driftAcrossCrossover(8000, half))
	res, err := e.Run(RunOptions{
		Duration: 2 * half, Transactions: 200_000,
		Seed: 7, SampleWindow: granWindow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LevelChanges) == 0 {
		t.Fatal("the drift should force at least one level change")
	}
	rebuilt := 0
	for _, lc := range res.LevelChanges {
		rebuilt += lc.RebuiltLogs
	}
	if rebuilt == 0 {
		t.Fatal("no level change rebuilt a log; the regression needs a rebuild to bite")
	}
	if res.Log.LogicalRecords < res.Committed {
		t.Errorf("adaptive run under-reports its log activity: %d logical records for %d commits (changes: %+v)",
			res.Log.LogicalRecords, res.Committed, res.LevelChanges)
	}
	// The fixed-level twin of the first phase obeys the same invariant, so
	// the adaptive assertion above compares like with like.
	fixed, err := New(Config{
		Design:      SharedNothing,
		IslandLevel: topology.LevelSocket,
		Workload:    workload.MultisiteUpdate(8000, 0),
		Topology:    mustProfileTop(t, "2s-fc"),
	})
	if err != nil {
		t.Fatal(err)
	}
	fres, err := fixed.Run(RunOptions{Transactions: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if fres.Log.LogicalRecords < fres.Committed {
		t.Fatalf("fixed-level run breaks the one-record-per-commit floor: %d records, %d commits",
			fres.Log.LogicalRecords, fres.Committed)
	}
}

func mustProfileTop(t *testing.T, name string) *topology.Topology {
	t.Helper()
	prof, ok := topology.ProfileByName(name)
	if !ok {
		t.Fatalf("unknown profile %s", name)
	}
	return prof.Build()
}
