package harness

import "testing"

// TestExecutedSweepReport runs the executed-storage sweep at test scale and
// checks its structural invariants: every grid cell measured in both modes
// with work committed in each, and one verdict per profile.
func TestExecutedSweepReport(t *testing.T) {
	s := testScale()
	grid, err := executedSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	profiles := islandSweepProfiles(s)
	if want := 2 * len(profiles); len(grid) != want {
		t.Fatalf("sweep produced %d rows, want %d (two multisite endpoints per profile)", len(grid), want)
	}
	for r, row := range grid {
		prof := profiles[r/2]
		if levels := prof.Build().DistinctLevels(); len(row) != len(levels) {
			t.Fatalf("row %d covers %d levels of %s, want %d", r, len(row), prof.Name, len(levels))
		}
		for _, pt := range row {
			if pt.res.ThroughputTPS <= 0 || pt.res.Committed <= 0 {
				t.Errorf("priced point %s has no virtual throughput", pt.cell)
			}
			if pt.exec == nil || pt.exec.MeasuredKTPS <= 0 || pt.exec.Committed <= 0 {
				t.Errorf("executed point %s has no measured throughput", pt.cell)
			}
		}
	}
	verdicts := executedVerdicts(grid)
	if len(verdicts) != len(profiles) {
		t.Fatalf("sweep yields %d verdicts, want %d", len(verdicts), len(profiles))
	}
	for i, v := range verdicts {
		if v.profile != profiles[i].Name {
			t.Errorf("verdict %d is for %q, want %q", i, v.profile, profiles[i].Name)
		}
	}
}

// TestFigExecutedCrossover renders the experiment table and asserts its
// headline invariant: real execution backs up the priced model's crossover
// direction on the chiplet machine (FigExecuted errors otherwise).
func TestFigExecutedCrossover(t *testing.T) {
	s := testScale()
	tbl, err := FigExecuted(s)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(islandSweepProfiles(s)); len(tbl.Rows) != want {
		t.Fatalf("fig-executed has %d rows, want %d", len(tbl.Rows), want)
	}
	asserted := false
	for _, row := range tbl.Rows {
		if row[0] != executedCrossoverProfile {
			continue
		}
		asserted = true
		if row[len(row)-1] != "yes" {
			t.Errorf("%s modes disagree on the crossover direction: %v", executedCrossoverProfile, row)
		}
	}
	if !asserted {
		t.Errorf("fig-executed has no %s row to assert the crossover on", executedCrossoverProfile)
	}
}

// TestFigExecutedRegistered checks the experiment is reachable by id.
func TestFigExecutedRegistered(t *testing.T) {
	if _, ok := Lookup("fig-executed"); !ok {
		t.Fatal("fig-executed not registered")
	}
}
