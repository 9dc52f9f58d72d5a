package harness

import (
	"fmt"

	"atrapos/internal/backend"
	"atrapos/internal/engine"
	"atrapos/internal/topology"
	"atrapos/internal/wal"
	"atrapos/internal/workload"
)

// point is one engine run of a figure: its configuration, its run options (a
// fixed transaction count, or a series with its window, duration and faults)
// and whether it also measures its executed twin. config builds a fresh
// Topology and Workload on every call: Run mutates a topology's liveness and
// traffic counters, and a TPC-C workload its order sequences. cell holds a
// level-grid point's coordinates; res and exec are what runGrid measured.
type point struct {
	name     string
	config   func() engine.Config
	opts     engine.RunOptions
	executed bool
	cell
	res  *engine.Result
	exec *engine.ExecutedResult
}

// runGrid runs every point of a figure through the harness pool at
// Scale.Parallel concurrency (inline on the experiment's point under
// RunAllTimed) and returns the grid with each point's results in its own
// slot. Every point is a pure function of (seed, config), so the grid is the
// same at any concurrency. Point failures are joined into one error naming
// each bad point instead of aborting at the first; a failed point's results
// stay nil.
func runGrid(s Scale, id string, grid [][]point) ([][]point, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	pool := s.pool()
	var jobs []PointFn
	for r := range grid {
		for c := range grid[r] {
			pt := &grid[r][c]
			jobs = append(jobs, func() error {
				if err := pt.run(pool); err != nil {
					return fmt.Errorf("%s %s: %w", id, pt.name, err)
				}
				return nil
			})
		}
	}
	return grid, pool.Run(jobs)
}

// run measures the point on the priced (virtual-time) path and, when it asks
// for it, once more on the executed path. The executed run is Exclusive, a
// full barrier: wall-clock throughput only means something when no other
// point shares the host.
func (pt *point) run(pool *Pool) error {
	e, err := engine.New(pt.config())
	if err != nil {
		return err
	}
	if pt.res, err = runSeries(e, pt.opts); err != nil || !pt.executed {
		return err
	}
	return pool.Exclusive(func() error {
		cfg := pt.config()
		cfg.Backend = backend.Hash
		x, err := engine.New(cfg)
		if err != nil {
			return err
		}
		pt.exec, err = x.RunExecuted(pt.opts)
		return err
	})
}

// cell is one point of a level-grid figure: the parametric shared-nothing
// design at one island level on one machine profile, under the workload and
// storage shape of its grid row. A row is a cell whose level is still unset;
// levelGrid expands it across the levels its machine distinguishes.
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
}

func (c cell) String() string {
	wl := fmt.Sprintf("%d%% multisite", c.pct)
	if c.hotkey {
		wl = "zipf-hotkey"
	}
	return fmt.Sprintf("%s/%s/%s (layout %q, coalesce %d)", c.prof.Name, c.level, wl, c.layout, c.coalesce)
}

// config is the cell's shared-nothing engine on a fresh machine and workload.
func (c cell) config(s Scale) engine.Config {
	cfg := engine.Config{
		Design:       engine.SharedNothing,
		IslandLevel:  c.level,
		Workload:     workload.MultisiteUpdate(s.MicroRows, c.pct),
		Topology:     c.prof.Build(),
		DeviceLayout: c.layout,
	}
	if c.hotkey {
		cfg.Workload = workload.ZipfHotkey(s.MicroRows, 10, 30)
	}
	if c.coalesce > 0 {
		lc := wal.DefaultConfig()
		lc.CoalesceRecords = c.coalesce
		cfg.LogConfig = &lc
	}
	return cfg
}

// levelGrid expands every row across the island levels its machine
// distinguishes, finest first: grid[r] is rows[r], one fixed-transaction
// point per level.
func levelGrid(s Scale, rows []cell) [][]point {
	grid := make([][]point, len(rows))
	for r, row := range rows {
		for _, level := range row.prof.Build().DistinctLevels() {
			c := row
			c.level = level
			grid[r] = append(grid[r], point{name: c.String(), cell: c, opts: s.runOptions(),
				config: func() engine.Config { return c.config(s) }})
		}
	}
	return grid
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
