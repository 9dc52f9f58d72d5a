package harness

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"atrapos/internal/engine"
	"atrapos/internal/workload"
)

// TestDriftAndOscillateScenarios runs the two new adaptivity scenario
// families end to end and checks the rendered output carries the diff
// reporting.
func TestDriftAndOscillateScenarios(t *testing.T) {
	for _, fn := range []func(Scale) (*Table, error){FigDrift, FigOscillate} {
		tbl, err := fn(testScale())
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) < 5 {
			t.Errorf("%s series has only %d samples", tbl.ID, len(tbl.Rows))
		}
		rendered := tbl.String()
		if !strings.Contains(rendered, "adaptation cost share") {
			t.Errorf("%s notes should report the adaptation cost share:\n%s", tbl.ID, rendered)
		}
	}
}

// TestDriftRepartitionsAreIncremental is the acceptance check for the
// incremental pipeline: on the drifting-hotspot scenario only the Subscriber
// table carries load, so every repartitioning must leave at least one of the
// other TATP tables untouched — its runtime (partition count and lock
// tables) is reused rather than rebuilt.
func TestDriftRepartitionsAreIncremental(t *testing.T) {
	s := testScale()
	wl, err := workload.TATPDriftingHotspot(s.Subscribers, paperSecond(5))
	if err != nil {
		t.Fatal(err)
	}
	top := s.Topology()
	place := engine.DerivePlacement(wl, top, true)
	e, err := engine.New(adaptive(engine.Config{Design: engine.ATraPos, Workload: wl, Topology: top, Placement: place}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(s.seriesOptions(paperSecond(60)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Repartitions == 0 {
		t.Fatal("drifting hotspot never triggered a repartitioning")
	}
	if len(res.RepartitionDiffs) != int(res.Repartitions) {
		t.Errorf("recorded %d diffs for %d repartitions", len(res.RepartitionDiffs), res.Repartitions)
	}
	reusedTable := false
	reusedLocks := false
	for _, d := range res.RepartitionDiffs {
		if d.UnchangedTables >= 1 {
			reusedTable = true
		}
		if d.ReusedLockTables >= 1 {
			reusedLocks = true
		}
	}
	if !reusedTable {
		t.Errorf("no repartitioning reused an unchanged table runtime; diffs: %+v", res.RepartitionDiffs)
	}
	if !reusedLocks {
		t.Errorf("no repartitioning carried over any partition lock table; diffs: %+v", res.RepartitionDiffs)
	}
	if res.AdaptationCostShare <= 0 || res.AdaptationCostShare >= 1 {
		t.Errorf("adaptation cost share %.4f out of range (0,1)", res.AdaptationCostShare)
	}
}

// pinnedProfile is a machine unlike the scale's own (two sockets where
// MaxSockets says four), so an experiment that indexes the machine by
// Scale.MaxSockets instead of by the topology it built breaks on it.
const pinnedProfile = "chiplet-2s4d"

// TestRegistryRunsOnPinnedProfile runs every experiment on a pinned machine
// profile: none may fail because the profile's shape differs from the scale's.
func TestRegistryRunsOnPinnedProfile(t *testing.T) {
	s := testScale()
	s.Profile = pinnedProfile
	for _, e := range Registry() {
		_, err := e.Run(s)
		// fig-executed's crossover verdict is measured in wall time, which a
		// loaded host can flip; TestFigExecutedCrossover owns that verdict.
		// This test checks that every experiment runs on a pinned shape.
		if err != nil && !(e.ID == "fig-executed" && errors.Is(err, errCrossoverDisagrees)) {
			t.Errorf("%s on %s: %v", e.ID, pinnedProfile, err)
		}
	}
}

// TestFig12LosesASocketOnPinnedProfile checks the failure is really injected
// on a pinned profile: after t=20 the static system collapses onto the
// surviving socket and ATraPos repartitions around the loss. The transaction
// cap (40 x Transactions) must outlast t=20 on the 32-core machine.
func TestFig12LosesASocketOnPinnedProfile(t *testing.T) {
	s := testScale()
	s.Profile = pinnedProfile
	s.Transactions = 2500
	tbl, err := Fig12(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 30 {
		t.Fatalf("series has %d windows; the run must outlast the failure at t=20", len(tbl.Rows))
	}
	// Columns are t, atrapos, static (labels sorted).
	static := func(row int) float64 { v, _ := strconv.ParseFloat(tbl.Rows[row][2], 64); return v }
	if before, after := static(9), static(24); after > 0.6*before {
		t.Errorf("static throughput %.0f at t=25 vs %.0f at t=10: losing one of two sockets should about halve it", after, before)
	}
	if note := tbl.Notes[0]; strings.Contains(note, "repartitioned 0 time(s)") {
		t.Errorf("ATraPos never repartitioned around the failed socket: %s", note)
	}
}

// TestFig12NeedsASocketToLose: on a one-socket machine the failure cannot be
// scheduled, which is an error rather than a figure with nothing injected.
func TestFig12NeedsASocketToLose(t *testing.T) {
	s := testScale()
	s.Profile = "consumer-1s4d"
	if _, err := Fig12(s); err == nil {
		t.Error("Fig12 on a one-socket profile should fail: there is no socket to lose")
	}
}

// TestSeriesRunStoppedByItsCapErrors: a series run that its transaction count
// stops before its duration is no measurement, and runSeries says so; the same
// run left to the engine's own bound reaches its duration.
func TestSeriesRunStoppedByItsCapErrors(t *testing.T) {
	s := testScale()
	wl := workload.MustTATP(workload.TATPOptions{Subscribers: s.Subscribers, Mix: map[string]float64{workload.TATPGetSubData: 1}})
	opts := s.seriesOptions(paperSecond(5))
	for _, limit := range []int{100, 0} {
		e, err := engine.New(engine.Config{Design: engine.ATraPos, Workload: wl, Topology: s.Topology()})
		if err != nil {
			t.Fatal(err)
		}
		opts.Transactions = limit
		_, err = runSeries(e, opts)
		if limit > 0 && (err == nil || !strings.Contains(err.Error(), "stopped at")) {
			t.Errorf("a run capped at %d transactions: error %v, want one saying where it stopped", limit, err)
		}
		if limit == 0 && err != nil {
			t.Errorf("uncapped run: %v", err)
		}
	}
}

// TestSeriesExperimentsReachTheirDuration: at the quick scale every experiment
// built on a duration-driven series runs to its duration rather than stopping
// on a transaction count.
func TestSeriesExperimentsReachTheirDuration(t *testing.T) {
	for _, id := range []string{"fig10", "fig11", "fig12", "fig13", "fig-drift", "fig-oscillate", "fig-faults", "fig-adaptive-granularity"} {
		exp, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s is not registered", id)
		}
		if _, err := exp.Run(QuickScale()); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}
