package harness

import (
	"fmt"

	"atrapos/internal/backend"
	"atrapos/internal/engine"
	"atrapos/internal/topology"
	"atrapos/internal/wal"
	"atrapos/internal/workload"
)

// cell is one point of a level-grid sweep: the parametric shared-nothing
// design at one island level on one machine profile, under the workload and
// storage shape of its grid row. A row is a cell whose level is still unset;
// sweep expands it across the levels its machine distinguishes.
type cell struct {
	prof  topology.Profile
	level topology.Level
	// pct is the multisite share of the multisite-update microbenchmark;
	// hotkey runs the zipf-hotkey write workload (hot-key concentrated updates,
	// within-transaction overwrites, self-canceling churn) instead.
	pct    int
	hotkey bool
	// layout names the log-device layout the island logs bind to ("" runs
	// without device modeling); coalesce is the WAL's write-combining
	// threshold (0 is the plain log).
	layout   string
	coalesce int
	// executed also measures the cell's executed twin: the same engine on the
	// sharded hash backend, timed in wall nanoseconds.
	executed bool
}

func (c cell) String() string {
	wl := fmt.Sprintf("%d%% multisite", c.pct)
	if c.hotkey {
		wl = "zipf-hotkey"
	}
	return fmt.Sprintf("%s/%s/%s (layout %q, coalesce %d)", c.prof.Name, c.level, wl, c.layout, c.coalesce)
}

func (c cell) workload(s Scale) *workload.Workload {
	if c.hotkey {
		return workload.ZipfHotkey(s.MicroRows, 10, 30)
	}
	return workload.MultisiteUpdate(s.MicroRows, c.pct)
}

// point is a measured cell: the priced run's result, the device count of the
// cell's layout (0 without one), and the executed twin's result when the cell
// asked for it.
type point struct {
	cell
	devices int
	res     *engine.Result
	exec    *engine.ExecutedResult
}

// runPoint measures one cell on the priced (virtual-time) path and, when the
// cell asks for it, once more on the executed path. The executed run holds
// the pool's alloc token, which makes it a full barrier: wall-clock
// throughput only means something when no other point shares the host.
func runPoint(s Scale, pool *Pool, c cell) (point, error) {
	cfg := engine.Config{
		Design:       engine.SharedNothing,
		IslandLevel:  c.level,
		Workload:     c.workload(s),
		Topology:     c.prof.Build(),
		DeviceLayout: c.layout,
	}
	if c.coalesce > 0 {
		lc := wal.DefaultConfig()
		lc.CoalesceRecords = c.coalesce
		cfg.LogConfig = &lc
	}
	res, err := s.run(cfg)
	if err != nil {
		return point{}, err
	}
	pt := point{cell: c, res: res, devices: deviceCount(c.layout, cfg.Topology)}
	if c.executed {
		cfg.Workload, cfg.Topology, cfg.Backend = c.workload(s), c.prof.Build(), backend.Hash
		err = pool.WithAllocToken(func() error {
			x, err := engine.New(cfg)
			if err != nil {
				return err
			}
			pt.exec, err = x.RunExecuted(s.runOptions())
			return err
		})
	}
	return pt, err
}

// sweep measures every row at every island level its machine distinguishes,
// finest first. Points run through the harness pool at Scale.Parallel
// concurrency; the result is always in grid order (out[r] is rows[r], one
// point per level), and point failures are joined into one error naming each
// bad cell instead of aborting the sweep at the first.
func sweep(s Scale, label string, rows []cell) ([][]point, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	pool := s.pool()
	out := make([][]point, len(rows))
	var jobs []PointFn
	for r, row := range rows {
		levels := row.prof.Build().DistinctLevels()
		out[r] = make([]point, len(levels))
		for l, level := range levels {
			c := row
			c.level = level
			jobs = append(jobs, func() error {
				pt, err := runPoint(s, pool, c)
				if err != nil {
					return fmt.Errorf("%s %s: %w", label, c, err)
				}
				out[r][l] = pt
				return nil
			})
		}
	}
	if err := pool.Run(jobs); err != nil {
		return nil, err
	}
	return out, nil
}

// bestPoint is the row's winner: the point with the highest priced
// throughput, the finer level on a tie.
func bestPoint(row []point) point {
	best := row[0]
	for _, pt := range row[1:] {
		if pt.res.ThroughputTPS > best.res.ThroughputTPS {
			best = pt
		}
	}
	return best
}

// levelTable completes t, whose Header holds the names of the leading
// columns, into a per-level table: each grid row becomes lead(row), one
// throughput column per island level ("-" where the row's machine does not
// distinguish the level) and the winning level.
func levelTable(t *Table, grid [][]point, lead func(row []point) []string) *Table {
	for _, l := range topology.Levels() {
		t.Header = append(t.Header, l.String())
	}
	t.Header = append(t.Header, "best")
	for _, row := range grid {
		cells := lead(row)
		next := 0
		for _, l := range topology.Levels() {
			if next < len(row) && row[next].level == l {
				cells = append(cells, fmtTPS(row[next].res.ThroughputTPS))
				next++
			} else {
				cells = append(cells, "-")
			}
		}
		t.AddRow(append(cells, bestPoint(row).level.String())...)
	}
	return t
}
