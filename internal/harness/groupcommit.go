package harness

import (
	"fmt"
	"strconv"
)

// groupCommitCoalesce is the write-combining threshold the sweep's "on"
// points use: large enough that the accumulator amortizes across commits
// instead of degrading to one physical flush per transaction.
const groupCommitCoalesce = 64

// groupCommitLayouts are the storage shapes the coalescing sweep compares:
// the plentiful one-NVMe-per-socket layout and the single SATA-class device
// that serializes every island's flushes — the shape where write-combining
// pays the most.
func groupCommitLayouts() []string {
	return []string{"nvme-per-socket", "single-sata"}
}

// FigGroupCommit is the coalescing group-commit sweep: on one machine it runs
// the zipf-hotkey workload — hot-key concentrated updates, within-transaction
// overwrite pairs, self-canceling churn — across island granularities and
// device layouts with the write-combining accumulator on and off. The
// expected shape: coalescing collapses roughly half the logical records into
// net deltas, cuts physical flushes, and on the single serialized device that
// relief is worth the most, so the fine-vs-coarse crossover moves toward
// finer islands relative to the coalescing-off runs.
func FigGroupCommit(s Scale) (*Table, error) {
	grid, err := groupCommitSweep(s)
	if err != nil {
		return nil, err
	}
	t := levelTable(&Table{
		ID:     "fig-group-commit",
		Title:  fmt.Sprintf("Coalescing group commit: zipf-hotkey throughput by layout, island granularity and write-combining (%s)", grid[0][0].prof.Name),
		Header: []string{"layout", "coalesce"},
		Notes: []string{
			"coalesce=0 is the plain per-island log; coalesce=64 folds committed records into (table,key) net deltas before flushing.",
			"phys/logical is the surviving write-record ratio at the finest level; self-canceling and overwriting updates push it below 1.",
			"Expected shift: on the single SATA device coalescing relieves the serialized flush path, moving the best island level finer and lifting throughput.",
		},
	}, grid, func(row []point) []string {
		return []string{row[0].layout, strconv.Itoa(row[0].coalesce)}
	})
	t.Header = append(t.Header, "phys/logical")
	for r, row := range grid {
		t.Rows[r] = append(t.Rows[r], fmt.Sprintf("%.2f", row[0].recordRatio()))
	}
	return t, nil
}

// groupCommitSweep measures the coalescing grid on the device-sweep profile:
// every layout with the accumulator off and on, one row each.
func groupCommitSweep(s Scale) ([][]point, error) {
	prof, err := s.profile(deviceSweepProfile)
	if err != nil {
		return nil, err
	}
	var rows []cell
	for _, layout := range groupCommitLayouts() {
		for _, coalesce := range []int{0, groupCommitCoalesce} {
			rows = append(rows, cell{prof: prof, hotkey: true, layout: layout, coalesce: coalesce})
		}
	}
	return runGrid(s, "fig-group-commit", levelGrid(s, rows))
}

// recordRatio is the share of logical write records that survived
// write-combining (exactly 1 on the plain log). Control records (commit, 2PC)
// are physical but never logical, so the ratio counts write records only.
func (p point) recordRatio() float64 {
	if p.res.Log.LogicalRecords == 0 {
		return 0
	}
	return float64(p.res.Log.LogicalRecords-p.res.Log.CoalescedRecords) / float64(p.res.Log.LogicalRecords)
}
