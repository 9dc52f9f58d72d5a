package harness

import "testing"

// TestGroupCommitCoalescingWins asserts fig-group-commit's headline claims on
// the live sweep, per (layout, level) pair of a plain and a coalescing run:
// with the accumulator off every logical record survives and none is
// coalesced; with it on at most half survive and fewer physical flushes reach
// the device; and on the single serialized SATA device coalescing never loses
// throughput and narrows the best level's lead over the finest.
func TestGroupCommitCoalescingWins(t *testing.T) {
	grid, err := groupCommitSweep(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(groupCommitLayouts()); len(grid) != want {
		t.Fatalf("sweep produced %d rows, want %d (off and on per layout)", len(grid), want)
	}
	// Rows come in (off, on) pairs per layout, levels aligned.
	for r := 0; r < len(grid); r += 2 {
		off, on := grid[r], grid[r+1]
		if off[0].coalesce != 0 || on[0].coalesce != groupCommitCoalesce || off[0].layout != on[0].layout {
			t.Fatalf("rows %d/%d are not an off/on pair of one layout: %s, %s", r, r+1, off[0].cell, on[0].cell)
		}
		for i := range off {
			plain, comb := off[i], on[i]
			if plain.res.Log.LogicalRecords <= 0 || comb.res.Log.LogicalRecords <= 0 {
				t.Fatalf("%s logged nothing", plain.cell)
			}
			if plain.res.Log.CoalescedRecords != 0 || plain.recordRatio() != 1 {
				t.Errorf("%s: plain log coalesced %d records, ratio %v (want 0 and exactly 1)",
					plain.cell, plain.res.Log.CoalescedRecords, plain.recordRatio())
			}
			if ratio := comb.recordRatio(); ratio <= 0 || ratio > 0.5 {
				t.Errorf("%s: surviving-record ratio %.3f, want in (0, 0.5]", comb.cell, ratio)
			}
			if comb.res.Log.PhysicalFlushes >= plain.res.Log.PhysicalFlushes {
				t.Errorf("%s: %d physical flushes with coalescing, %d without; want fewer",
					comb.cell, comb.res.Log.PhysicalFlushes, plain.res.Log.PhysicalFlushes)
			}
			if 2*comb.res.Log.PhysicalFlushes > comb.res.Log.LogicalRecords {
				t.Errorf("%s: %d physical flushes exceed half of %d logical records",
					comb.cell, comb.res.Log.PhysicalFlushes, comb.res.Log.LogicalRecords)
			}
			if comb.layout == "single-sata" && comb.res.ThroughputTPS < plain.res.ThroughputTPS {
				t.Errorf("%s: coalescing lost throughput on the serialized device (%.0f < %.0f)",
					comb.cell, comb.res.ThroughputTPS, plain.res.ThroughputTPS)
			}
		}
		// On the serialized device coalescing lifts the finest level most, so
		// the best level's lead over it narrows (the best level need not move).
		if off[0].layout == "single-sata" {
			lead := func(row []point) float64 { return bestPoint(row).res.ThroughputTPS / row[0].res.ThroughputTPS }
			if lead(on) >= lead(off) {
				t.Errorf("single-sata: best over %v throughput is %.2fx with coalescing, %.2fx without; want it lower",
					off[0].level, lead(on), lead(off))
			}
		}
	}
}
