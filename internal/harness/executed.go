package harness

import (
	"errors"
	"fmt"
	"runtime"

	"atrapos/internal/backend"
	"atrapos/internal/engine"
)

// executedCrossoverProfile is the machine whose crossover-direction agreement
// fig-executed asserts: chiplet-2s4d distinguishes all four island levels, so
// it is the sharpest test of the model's level ranking.
const executedCrossoverProfile = "chiplet-2s4d"

// errCrossoverDisagrees is FigExecuted's verdict when the two modes disagree
// on the crossover direction on executedCrossoverProfile. The executed side is
// a wall-clock measurement, so a host too busy to time the cells can flip it.
// No other harness point runs beside a timed cell (executedSweep and
// runExperiments order the work so), but other processes may.
var errCrossoverDisagrees = errors.New("fig-executed: priced and executed modes disagree on the fine-vs-coarse crossover direction")

// executedVerdict compares the two modes on one machine profile.
type executedVerdict struct {
	profile string
	// crossPriced / crossExecuted report whether the finest island level's
	// advantage over the coarsest *shrinks* as the multisite probability grows
	// (the crossover direction the paper predicts), per mode.
	crossPriced, crossExecuted bool
}

// executedSweep runs the islands grid (profile x multisite probability x
// island level) in both storage modes. The priced grid runs through runGrid;
// once its pool has joined, each point's executed twin runs in turn on the
// calling goroutine, so no other point of the grid shares the host with a
// timed cell. The multisite endpoints {0, 100} are enough for the crossover
// direction and keep the serial executed cells cheap. Rows come in
// (0%, 100%) pairs per profile.
func executedSweep(s Scale) ([][]point, error) {
	var rows []cell
	for _, prof := range islandSweepProfiles(s) {
		for _, pct := range []int{0, 100} {
			rows = append(rows, cell{prof: prof, pct: pct})
		}
	}
	grid, err := runGrid(s, "fig-executed", levelGrid(s, rows))
	if err != nil {
		return nil, err
	}
	var errs []error
	for _, row := range grid {
		for i := range row {
			if err := row[i].runExecuted(); err != nil {
				errs = append(errs, fmt.Errorf("fig-executed %s: %w", row[i].name, err))
			}
		}
	}
	return grid, errors.Join(errs...)
}

// runExecuted measures the point's executed twin: the same configuration on
// the hash backend, timed in wall time.
func (pt *point) runExecuted() error {
	cfg := pt.config()
	cfg.Backend = backend.Hash
	x, err := engine.New(cfg)
	if err != nil {
		return err
	}
	pt.exec, err = x.RunExecuted(pt.opts)
	return err
}

// executedVerdicts derives one verdict per profile from executedSweep's grid.
func executedVerdicts(grid [][]point) []executedVerdict {
	var out []executedVerdict
	for r := 0; r+1 < len(grid); r += 2 {
		local, multi := grid[r], grid[r+1]
		v := executedVerdict{profile: local[0].prof.Name}
		// direction: does fine/coarse fall from the local row to the multisite
		// row under the given per-point score?
		direction := func(score func(point) float64) bool {
			ratio := func(row []point) float64 {
				coarse := score(row[len(row)-1])
				if coarse <= 0 {
					return 0
				}
				return score(row[0]) / coarse
			}
			return ratio(local) > ratio(multi)
		}
		v.crossPriced = direction(func(pt point) float64 { return pt.res.ThroughputTPS })
		v.crossExecuted = direction(func(pt point) float64 { return pt.exec.MeasuredKTPS })
		out = append(out, v)
	}
	return out
}

// FigExecuted is the executed-storage experiment: the islands grid measured
// both by the priced cost model and by real execution on the sharded hash
// backend, with each mode's crossover direction per profile. It fails
// with errCrossoverDisagrees, and the table that shows the disagreement, when
// the two modes disagree on the fine-vs-coarse crossover direction on the
// chiplet machine — the one assertion that real execution must back up the
// model on.
func FigExecuted(s Scale) (*Table, error) {
	grid, err := executedSweep(s)
	if err != nil {
		return nil, err
	}
	executors := 0
	for _, row := range grid {
		for _, pt := range row {
			executors = max(executors, pt.exec.Executors)
		}
	}
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	t := &Table{
		ID:     "fig-executed",
		Title:  "Executed storage vs priced model: crossover direction",
		Header: []string{"profile", "crossover (priced)", "crossover (executed)", "agree"},
		Notes: []string{
			"crossover: whether the finest level's advantage over the coarsest shrinks as the multisite share grows.",
			fmt.Sprintf("the modes must agree on the crossover direction on %s.", executedCrossoverProfile),
			fmt.Sprintf("host: GOMAXPROCS=%d, up to %d executors per cell; levels with more executors than processors are time-sliced.",
				runtime.GOMAXPROCS(0), executors),
		},
	}
	agrees := true
	for _, v := range executedVerdicts(grid) {
		t.AddRow(v.profile, yn(v.crossPriced), yn(v.crossExecuted), yn(v.crossPriced == v.crossExecuted))
		if v.profile == executedCrossoverProfile {
			agrees = v.crossPriced == v.crossExecuted
		}
	}
	if !agrees {
		return t, fmt.Errorf("%w on %s", errCrossoverDisagrees, executedCrossoverProfile)
	}
	return t, nil
}
