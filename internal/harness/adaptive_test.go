package harness

import (
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
	e, err := engine.New(engine.Config{
		Design:           engine.ATraPos,
		Workload:         wl,
		Topology:         top,
		Placement:        place,
		Adaptive:         true,
		AdaptiveInterval: adaptiveInterval(),
		TimeCompression:  timeCompression,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(engine.RunOptions{
		Duration:        paperSecond(60),
		MaxTransactions: 40 * s.Transactions,
		Seed:            s.Seed,
		SampleWindow:    adaptiveWindow,
	})
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
