package harness

import "testing"

// layoutRow returns the sweep row of one layout (the grid has one multisite
// percentage, so one row per layout) with its per-level TPS by level name.
func layoutRow(t *testing.T, grid [][]point, layout string) ([]point, map[string]float64) {
	t.Helper()
	for _, row := range grid {
		if row[0].layout != layout {
			continue
		}
		tps := make(map[string]float64)
		for _, pt := range row {
			tps[pt.level.String()] = pt.res.ThroughputTPS
		}
		return row, tps
	}
	t.Fatalf("no row for layout %s", layout)
	return nil, nil
}

// TestDeviceSweepCrossoverShift asserts the headline result of the log-device
// subsystem: the granularity crossover moves as devices get scarcer. With one
// NVMe namespace per socket, fine islands keep their flush paths spread and
// win at 0% multisite; with a single SATA-class device every level's commits
// serialize through the same queue, the fine-island advantage is erased, and
// the best granularity at the same multisite share is strictly coarser.
func TestDeviceSweepCrossoverShift(t *testing.T) {
	grid, err := deviceSweep(testScale(), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	plentifulRow, plentifulTPS := layoutRow(t, grid, "nvme-per-socket")
	scarceRow, scarceTPS := layoutRow(t, grid, "single-sata")
	plentiful, scarce := bestPoint(plentifulRow).level, bestPoint(scarceRow).level
	if !(plentiful < scarce) {
		t.Errorf("best level at 0%% multisite should be strictly finer with per-socket NVMe (%v) than with a single device (%v)",
			plentiful, scarce)
	}
	// The fine-over-coarse advantage must shrink with the device count, with
	// clear separation: per-socket NVMe leaves core islands ahead of socket
	// islands, the single device puts them behind.
	rPlentiful := plentifulTPS["core"] / plentifulTPS["socket"]
	rScarce := scarceTPS["core"] / scarceTPS["socket"]
	if !(rPlentiful > 1.0 && rScarce < 1.0) {
		t.Errorf("core/socket throughput ratio should drop below 1 as devices get scarce: per-socket NVMe %.3f, single SATA %.3f",
			rPlentiful, rScarce)
	}
	// Every point carries its layout's device count, names its cell and
	// committed work.
	for _, row := range grid {
		for _, pt := range row {
			want := map[string]int{"nvme-per-socket": 2, "nvme-per-die-pair": 4, "single-sata": 1}[pt.layout]
			if pt.devices != want {
				t.Errorf("%s reports %d devices, want %d", pt.layout, pt.devices, want)
			}
			if pt.prof.Name == "" || !pt.level.Valid() || pt.res.Committed <= 0 {
				t.Errorf("point %s is incomplete (committed %d)", pt.cell, pt.res.Committed)
			}
		}
	}
}

// TestFigLogDevicesRegistered checks the experiment is reachable by id and
// renders one row per layout and percentage.
func TestFigLogDevicesRegistered(t *testing.T) {
	if _, ok := Lookup("fig-log-devices"); !ok {
		t.Fatal("fig-log-devices not registered")
	}
	tbl, err := FigLogDevices(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(deviceSweepLayouts()) * 3; len(tbl.Rows) != want {
		t.Errorf("fig-log-devices has %d rows, want %d", len(tbl.Rows), want)
	}
	for _, row := range tbl.Rows {
		if row[len(row)-1] == "" {
			t.Errorf("row %v has no winner", row)
		}
	}
}
