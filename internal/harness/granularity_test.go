package harness

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"atrapos/internal/topology"
)

// TestFigAdaptiveGranularityTracksStaticBest runs the drifting-share scenario
// and asserts the acceptance property: on either side of the crossover the
// adaptive engine converges to the island level the static fig-islands sweep
// crowns at that multisite percentage, and the machine was actually re-wired
// along the way (the engine deliberately starts at a level that is best on
// neither side).
func TestFigAdaptiveGranularityTracksStaticBest(t *testing.T) {
	traj, err := RunAdaptiveGranularity(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if traj.Committed == 0 {
		t.Fatal("adaptive run committed nothing")
	}
	if len(traj.Phases) != 2 {
		t.Fatalf("want 2 phases, got %+v", traj.Phases)
	}
	for _, ph := range traj.Phases {
		if ph.AdaptiveLevel != ph.StaticBest {
			t.Errorf("at %d%% multisite the adaptive engine ran at %s, statically best is %s (changes: %+v)",
				ph.MultiPct, ph.AdaptiveLevel, ph.StaticBest, traj.Changes)
		}
	}
	// The static winners differ across the drift (the crossover exists), so
	// tracking them requires at least two re-wirings from the socket start.
	lowBest, _ := topology.ParseLevel(traj.Phases[0].StaticBest)
	highBest, _ := topology.ParseLevel(traj.Phases[1].StaticBest)
	if !(lowBest < highBest) {
		t.Fatalf("crossover lost: static best %v at 0%%, %v at 100%%", lowBest, highBest)
	}
	if len(traj.Changes) < 2 {
		t.Errorf("expected at least two level changes, got %+v", traj.Changes)
	}
	if traj.FinalLevel != traj.Phases[1].StaticBest {
		t.Errorf("final level %s, want %s", traj.FinalLevel, traj.Phases[1].StaticBest)
	}
	// No re-wiring stalled the whole machine for free: every change names its
	// affected cores and its cost.
	for _, lc := range traj.Changes {
		if lc.AffectedCores <= 0 {
			t.Errorf("level change %+v affected no cores", lc)
		}
	}
}

// TestFigAdaptiveGranularityRegistered checks the experiment is reachable by
// id and renders a table with the tracked verdict per phase.
func TestFigAdaptiveGranularityRegistered(t *testing.T) {
	if _, ok := Lookup("fig-adaptive-granularity"); !ok {
		t.Fatal("fig-adaptive-granularity not registered")
	}
	tbl, err := FigAdaptiveGranularity(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "yes" {
			t.Errorf("phase row %v did not track the static best", row)
		}
	}
}

// TestTracedDriftCoversRun: the traced drift run's one span ring holds the
// whole 60 ms run. Nothing is dropped, a sampled transaction falls in every
// 2 ms window and on both sides of every migration, and the unsampled
// producers (island logs, planner) keep every span and decision. The trace
// says how it was sampled (otherData): its period must resolve a 2 ms window
// 20 times over, at least half its ticks must hold a traced transaction, and
// its dropped-span count must be the run's.
func TestTracedDriftCoversRun(t *testing.T) {
	const (
		window     = 2 * time.Millisecond
		coveredEnd = 56 * time.Millisecond
		// Both seeds log 14 decisions: 10 boundaries seal and score, and 4
		// sit out the cooldown after the two migrations.
		decisions, seals, scores = 14, 10, 10
	)
	for _, tc := range []struct {
		seed      int64
		physFlush int
	}{{42, 2321}, {9173, 2298}} {
		s := QuickScale()
		s.Seed = tc.seed
		res, err := RunTracedDrift(s, "", "")
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err) // includes drop-accounting violations
		}
		if res.DroppedSpans != 0 {
			t.Errorf("seed %d: %d spans dropped", tc.seed, res.DroppedSpans)
		}
		var doc struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Ts   float64 `json:"ts"`
			} `json:"traceEvents"`
			OtherData struct {
				SamplePeriodNs int64 `json:"sample_period_ns"`
				DroppedSpans   int64 `json:"dropped_spans"`
			} `json:"otherData"`
		}
		if err := json.Unmarshal(res.Trace, &doc); err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		period := time.Duration(doc.OtherData.SamplePeriodNs)
		if period <= 0 || 20*period > window || doc.OtherData.DroppedSpans != res.DroppedSpans {
			t.Fatalf("seed %d: the trace says it sampled every %v (a %v window needs 20 samples) and dropped %d spans; the run dropped %d",
				tc.seed, period, window, doc.OtherData.DroppedSpans, res.DroppedSpans)
		}
		count := map[string]int{}
		var txns, migrations []time.Duration
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "M" {
				continue
			}
			count[ev.Name]++
			at := time.Duration(math.Round(ev.Ts * 1000))
			switch ev.Name {
			case "txn":
				txns = append(txns, at)
			case "planner-migrate":
				migrations = append(migrations, at)
			}
		}
		if ticks := int(coveredEnd / period); len(txns) < ticks/2 {
			t.Errorf("seed %d: %d traced transactions in %v, under half the %d ticks of its %v period", tc.seed, len(txns), coveredEnd, ticks, period)
		}
		// Is there a traced transaction starting in [from, to)?
		tracedIn := func(from, to time.Duration) bool {
			for _, at := range txns {
				if at >= from && at < to {
					return true
				}
			}
			return false
		}
		for from := time.Duration(0); from < coveredEnd; from += window {
			if !tracedIn(from, from+window) {
				t.Errorf("seed %d: no traced txn in [%v, %v)", tc.seed, from, from+window)
			}
		}
		if len(migrations) != len(res.Trajectory.Changes) {
			t.Fatalf("seed %d: %d planner-migrate spans for %d migrations", tc.seed, len(migrations), len(res.Trajectory.Changes))
		}
		// The export sorts a track's spans by start.
		for i, at := range migrations {
			if want := time.Duration(res.Trajectory.Changes[i].At); at != want {
				t.Errorf("seed %d: planner-migrate span %d at %v, migration at %v", tc.seed, i, at, want)
			}
			if !tracedIn(at-window, at) || !tracedIn(at+1, at+window+1) {
				t.Errorf("seed %d: no traced txn within %v before and after the migration at %v", tc.seed, window, at)
			}
		}
		if res.Decisions != decisions || count["planner-decision"] != decisions {
			t.Errorf("seed %d: %d decisions, %d exported; want %d", tc.seed, res.Decisions, count["planner-decision"], decisions)
		}
		if count["phys-flush"] != tc.physFlush || count["planner-seal"] != seals || count["planner-score"] != scores {
			t.Errorf("seed %d: phys-flush %d, planner-seal %d, planner-score %d; want %d, %d, %d", tc.seed,
				count["phys-flush"], count["planner-seal"], count["planner-score"], tc.physFlush, seals, scores)
		}
	}
}
